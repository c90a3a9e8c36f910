"""Definition-level brute-force oracles, independent of the closure engine.

Everything here works from first principles on raw adjacency masks: the
closure by ascending sweeps of the color change rule, forts by the
|F ∩ N(v)| != 1 definition, ZIr-sets by explicit fort existence, and the
forcing numbers by fort-transversal duality.  No function in this module
calls the package's closure, so oracle-vs-solver comparisons exercise two
genuinely different routes.  There are two exceptions.  ``labeled_survey``,
the reference for the survey's walk, reuses the survey's facts record and
checks and differs only in visiting every labeled graph.
``two_kernel_power_domination`` is the survey's gamma_P from before it was
read off the forcing table: it runs the all-subsets kernel a second time.
``unpruned_canonical_children``, the reference for the class generator,
tries every neighbourhood of the new vertex with ``reference_equitable_cells``
and ``reference_least_orders``: copies of the package's refinement from
before it re-split only the cells that can split (each round counts every
vertex in every cell), and of its least-order search from before its twin
pruning, which visits every vertex order that ties for the least mask (only
the names, the annotations and the bit iterator differ).

``reference_minimal_zfs_equivalence``, ``reference_complement_dominating``,
``reference_abandons`` and ``reference_zn2_complement_form`` are the
package's checks and complement recognizer from before they became
whole-int operations on the subset tables and adjacency rows: they walk
lists of sets and build graphs, and read the same facts record as the
checks they mirror; ``reference_twins`` finds the twin classes pair by
pair.
"""

from __future__ import annotations

from itertools import combinations, permutations


def bits_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def brute_closure(adj: tuple[int, ...], blue: int) -> int:
    """Apply the color change rule in ascending vertex order to a fixed point."""
    changed = True
    while changed:
        changed = False
        for v in range(len(adj)):
            if blue >> v & 1:
                white = adj[v] & ~blue
                if white.bit_count() == 1:
                    blue |= white
                    changed = True
    return blue


def brute_forts(adj: tuple[int, ...], n: int) -> list[int]:
    """All forts by definition, ascending numeric mask order."""
    full = (1 << n) - 1
    forts = []
    for f in range(1, full + 1):
        ok = True
        out = full & ~f
        while out:
            low = out & -out
            out ^= low
            if (adj[low.bit_length() - 1] & f).bit_count() == 1:
                ok = False
                break
        if ok:
            forts.append(f)
    return forts


def brute_minimal_forts(adj: tuple[int, ...], n: int) -> list[int]:
    forts = brute_forts(adj, n)
    fortset = set(forts)
    out = []
    for f in forts:
        if any(g != f and g & f == g for g in fortset):
            continue
        out.append(f)
    return out


def private_fort_exists(s: int, x: int, forts: list[int]) -> bool:
    bx = 1 << x
    return any(f & s == bx for f in forts)


def private_fort_table(adj: tuple[int, ...], n: int) -> list[list[bool]]:
    """h[x][U]: does some fort containing x live entirely inside U?

    Subset dynamic program over the ground set U; purely definitional.
    """
    full = (1 << n) - 1
    fort = [False] * (full + 1)
    for f in brute_forts(adj, n):
        fort[f] = True
    table = []
    for x in range(n):
        bx = 1 << x
        h = [False] * (full + 1)
        for u in range(bx, full + 1):
            if not u & bx:
                continue
            if fort[u]:
                h[u] = True
                continue
            m = u
            while m:
                low = m & -m
                m ^= low
                if low != bx and h[u ^ low]:
                    h[u] = True
                    break
        table.append(h)
    return table


def brute_is_zir(s: int, forts: list[int]) -> bool:
    return all(private_fort_exists(s, x, forts) for x in bits_of(s))


def brute_zir_params(adj: tuple[int, ...], n: int) -> dict[str, int]:
    """zir and ZIR straight from the definitions."""
    full = (1 << n) - 1
    forts = brute_forts(adj, n)
    zir_sets = [s for s in range(full + 1) if brute_is_zir(s, forts)]
    zir_flags = set(zir_sets)
    maximal = [s for s in zir_sets
               if all((s | (1 << v)) not in zir_flags for v in bits_of(full & ~s))]
    return {
        "zir": min(s.bit_count() for s in maximal),
        "ZIR": max(s.bit_count() for s in maximal),
        "maximal_sets": maximal,
        "zir_sets": zir_sets,
    }


def brute_forcing_params(adj: tuple[int, ...], n: int) -> dict[str, int]:
    """Z and Zbar via fort-transversal duality (a set forces iff it meets
    every fort); never touches the closure engine."""
    full = (1 << n) - 1
    forts = brute_forts(adj, n)

    def hits_all(b: int) -> bool:
        return all(b & f for f in forts)

    def minimal_transversal(b: int) -> bool:
        if not hits_all(b):
            return False
        return all(not hits_all(b ^ (1 << x)) for x in bits_of(b))

    z = min(b.bit_count() for b in range(full + 1) if hits_all(b))
    zbar = max(b.bit_count() for b in range(full + 1) if minimal_transversal(b))
    return {"Z": z, "Zbar": zbar}


def brute_domination(adj: tuple[int, ...], n: int, k: int) -> int:
    full = (1 << n) - 1
    best = n
    for m in range(full + 1):
        if m.bit_count() >= best:
            continue
        if all((adj[v] & m).bit_count() >= k for v in bits_of(full & ~m)):
            best = m.bit_count()
    return best


def _is_k_dominating(adj: tuple[int, ...], full: int, m: int, k: int) -> bool:
    outside = full & ~m
    while outside:
        low = outside & -outside
        outside ^= low
        if (adj[low.bit_length() - 1] & m).bit_count() < k:
            return False
    return True


def first_k_dominating(g, k: int) -> int:
    """The first k-dominating set of g in (size, lexicographic) order: every
    vertex outside it has at least k neighbours inside."""
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            m = sum(1 << v for v in combo)
            if _is_k_dominating(g.adj, g.full, m, k):
                return m
    raise AssertionError("the whole vertex set k-dominates")


def brute_independence(adj: tuple[int, ...], n: int) -> int:
    full = (1 << n) - 1
    return max(m.bit_count() for m in range(full + 1)
               if all(not adj[v] & m for v in bits_of(m)))


def brute_power_domination(adj: tuple[int, ...], n: int) -> int:
    """Minimum seed whose closed neighborhood meets every fort."""
    forts = brute_forts(adj, n)
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            seed = 0
            for v in combo:
                seed |= adj[v] | (1 << v)
            if all(seed & f for f in forts):
                return size
    return n


def two_kernel_power_domination(adj: tuple[int, ...]) -> int:
    """gamma_P by a second run of the package's all-subsets kernel: started
    at the tables of the sets m that dominate each vertex, it closes every
    N[m] at once, and m power-dominates iff that closure is everything."""
    from zirkit.subsets import close_all_subsets, subset_tables
    xs, layers = subset_tables(len(adj))
    once = list(xs)
    for v, row in enumerate(adj):
        for u in bits_of(row):
            once[v] |= xs[u]
    power = (1 << (1 << len(adj))) - 1
    for table in close_all_subsets(adj, [bits_of(row) for row in adj], once):
        power &= table
    return next(k for k, layer in enumerate(layers) if power & layer)


def random_adj(n: int, rng) -> tuple[int, ...]:
    """Uniform random labeled graph as adjacency masks."""
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def graph6_encode_reference(n: int, edges: set[tuple[int, int]]) -> str:
    """String-based graph6 encoder, written independently of the package.

    Upper-triangle bits in column order (0,1), (0,2), (1,2), (0,3), ...,
    zero-padded to a multiple of six, each six-bit group offset by 63.
    """
    assert 1 <= n <= 62
    normalized = {(min(u, v), max(u, v)) for u, v in edges}
    bitstring = "".join("1" if (i, j) in normalized else "0"
                        for j in range(1, n) for i in range(j))
    bitstring += "0" * (-len(bitstring) % 6)
    out = chr(63 + n)
    for k in range(0, len(bitstring), 6):
        out += chr(63 + int(bitstring[k:k + 6], 2))
    return out


def graph6_decode_reference(text: str) -> tuple[int, set[tuple[int, int]]]:
    """String-based graph6 decoder, inverse of the reference encoder."""
    n = ord(text[0]) - 63
    bitstring = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = {pairs[k] for k in range(len(pairs)) if bitstring[k] == "1"}
    return n, edges


def least_labeled_mask(n: int, edges) -> int:
    """The least edge mask, slots (0,1), (0,2), ..., (1,2), ..., over all
    n! relabelings of the graph with these edges."""
    slot = {(i, j): 1 << e for e, (i, j) in
            enumerate((i, j) for i in range(n) for j in range(i + 1, n))}
    return min(sum(slot[min(p[u], p[v]), max(p[u], p[v])] for u, v in edges)
               for p in permutations(range(n)))


def least_labelings(adj, cap):
    """The ``cap`` least distinct edge masks over all relabelings of a graph,
    by the package's ``graphs._least_orders`` over one cell."""
    from zirkit.graphs import _least_orders
    return [mask for mask, _, _ in _least_orders(adj, [list(range(len(adj)))], cap)]


def reference_equitable_cells(adj, last=None):
    """The coarsest equitable partition refining the degree partition, as
    cells ordered by invariant signatures; or None, when ``last`` is given,
    as soon as that vertex leaves the last cell.

    Each round gives every vertex the signature (its cell, its number of
    neighbours in each cell) and renumbers the cells by sorted signature,
    until no cell splits.  The cells and their order depend only on the
    graph, so every automorphism maps each cell onto itself.  A round sorts
    by the old cell first, so a cell only splits in place: a vertex that has
    left the last cell never comes back.
    """
    n = len(adj)
    cell = [0] * n
    members = [(1 << n) - 1]
    while True:
        counts = [[(row & m).bit_count() for row in adj] for m in members]
        sigs = list(zip(cell, *counts))
        ranked = sorted(set(sigs))
        if len(ranked) == len(members):
            return [bits_of(m) for m in members]
        rank = {s: i for i, s in enumerate(ranked)}
        cell = [rank[s] for s in sigs]
        if last is not None and cell[last] != len(ranked) - 1:
            return None
        members = [0] * len(ranked)
        for v, c in enumerate(cell):
            members[c] |= 1 << v


def reference_least_orders(adj, cells, cap):
    """The ``cap`` least edge masks (``edge_slots`` order) over the vertex
    orders that keep every cell of ``cells``, in turn, in its block of
    positions; each as ``[mask, orders that reach it, mask of the vertices
    those orders put last]``, ascending.

    Positions are filled from n-1 down: placing position p fixes the slots
    (p, q) for q > p, which are the next most significant bits, so an order
    whose high bits already exceed the ``cap``-th least mask's is dropped
    there.  Orders that tie are all visited.
    """
    n = len(adj)
    at = [c for c in cells for _ in c]  # the cell of each position
    offset = [p * (2 * n - p - 1) // 2 for p in range(n)]  # slot index of (p, p + 1)
    where = [0] * n  # position of each placed vertex
    found = []

    def place(p, free, high):
        shift = offset[p]
        rows = []
        for v in at[p]:
            if free >> v & 1:
                row = 0
                for u in bits_of(adj[v] & ~free):
                    row |= 1 << (where[u] - p - 1)
                rows.append((row, v))
        rows.sort()
        for row, v in rows:
            mask = high | row << shift
            if len(found) == cap and mask >> shift > found[-1][0] >> shift:
                return  # rows are sorted, so every later one is worse too
            where[v] = p
            if p:
                place(p - 1, free ^ 1 << v, mask)
                continue
            last = 1 << where.index(n - 1)
            for entry in found:
                if entry[0] == mask:
                    entry[1] += 1
                    entry[2] |= last
                    break
            else:
                found.append([mask, 1, last])
                found.sort()
                del found[cap:]

    place(n - 1, (1 << n) - 1, 0)
    return found


def unpruned_canonical_children(parent):
    """``graphs.canonical_children`` without its degree and twin skips, its
    early refinement exit and its twin pruning: every neighbourhood of the
    new vertex is refined in full and searched over every tying order."""
    n = len(parent) + 1
    new = 1 << (n - 1)
    seen = set()
    for adj in every_hood(parent):
        cells = reference_equitable_cells(adj)
        if n - 1 not in cells[-1]:
            continue
        mask, automorphisms, orbit = reference_least_orders(adj, cells, 1)[0]
        if orbit & new and mask not in seen:
            seen.add(mask)
            yield adj, automorphisms


def every_hood(parent):
    """Each child of ``parent`` by one new vertex, over all 2^n neighbourhoods."""
    new = 1 << len(parent)
    for hood in range(new):
        yield tuple(row | new if hood >> v & 1 else row
                    for v, row in enumerate(parent)) + (hood,)


def labeled_survey(max_order: int, checks: tuple[str, ...],
                   connected_only: bool = False, dedup: bool = False):
    """The survey as one walk over every labeled graph in edge-mask order.

    Under ``dedup`` only the graphs that are their class's least labeled
    mask are visited.  Examples are the first three violating or leading
    graphs met, each with the detail its check gave there.
    """
    from zirkit.graphs import enumerate_labeled_graphs, to_graph6
    from zirkit.subsets import TableFacts
    from zirkit.survey import _CHECKS, SurveyReport, _report

    tallies, leaders = {}, {}
    for n in range(1, max_order + 1):
        counts = {name: (0, 0, []) for name in checks}
        best, board = None, []
        for mask, g in enumerate(enumerate_labeled_graphs(n)):
            if dedup and least_labeled_mask(n, list(g.edges())) != mask:
                continue
            if connected_only and not g.is_connected():
                continue
            d = TableFacts(g)
            g6 = to_graph6(g)
            for name in checks:
                outcome = _CHECKS[name].evaluate(d)
                if isinstance(outcome, tuple):
                    checked, violations, examples = counts[name]
                    if not outcome[0]:
                        violations += 1
                        examples = (examples + [{"graph6": g6, "detail": outcome[1]}])[:3]
                    counts[name] = (checked + 1, violations, examples)
            if d.connected:
                value = d.values["ZIR"]
                if best is None or value < best:
                    best, board = value, [g6]
                elif value == best:
                    board = (board + [g6])[:3]
        tallies[n] = counts
        leaders[n] = (best, board)
    report = SurveyReport(max_order=max_order, connected_only=connected_only,
                          dedup=dedup, checks=checks)
    return _report(report, tallies, leaders)


# -- the survey checks as list-level walks --------------------------------


def reference_minimal_zfs_equivalence(f):
    """``minimal-zfs-equivalence`` over Python sets of masks."""
    from zirkit.profiles import SUBSET_CHECK_MAX_ORDER
    if f.n > SUBSET_CHECK_MAX_ORDER:
        return f"subset sweep limited to n <= {SUBSET_CHECK_MAX_ORDER}"
    minimal = set(bits_of(f.minimal_table))
    forcing_maximal = {s for s in bits_of(f.maximal_table) if f.forcing_table >> s & 1}
    if minimal == forcing_maximal:
        return True, "all subsets agree"
    s = min(minimal ^ forcing_maximal)
    return (False, f"set {bits_of(s)} minimal-zfs={s in minimal} "
            f"maximal-zir-and-zfs={s in forcing_maximal}", {"set": bits_of(s)})


def reference_complement_dominating(d):
    """``zir-complement-dominating``, maximal set by maximal set and vertex
    by vertex."""
    if not d.isolated_free:
        return ""
    adj, full = d.graph.adj, d.graph.full
    for m in bits_of(d.maximal_table):
        comp = full & ~m
        for v in range(d.n):
            if not (comp >> v) & 1 and not adj[v] & comp:
                return False, f"complement of maximal ZIr-set {bits_of(m)} misses {v}"
    return True, ""


def reference_twin_classes(adj):
    """The twin classes of two or more vertices by least vertex, from the
    definition: u and v are twins iff N(u) - v = N(v) - u."""
    n = len(adj)
    return [list(c) for c in dict.fromkeys(
        tuple(v for v in range(n) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
        for u in range(n)) if len(c) >= 2]


def reference_twins(d):
    """``twins`` over ``reference_twin_classes``."""
    classes = reference_twin_classes(d.graph.adj)
    if not classes:
        return ""
    for cls in classes:
        cls_mask = sum(1 << v for v in cls)
        need = len(cls) - 1
        for name, witness in (("Z", d.z_witness), ("Zbar", d.zbar_witness)):
            if (witness & cls_mask).bit_count() < need:
                return False, (f"{name} witness {bits_of(witness)} has fewer than "
                               f"{need} of twin class {cls}")
    return True, ""


def is_path_graph(g) -> bool:
    """True iff g is a path (any order >= 1)."""
    if g.n == 1:
        return True
    degs = g.degrees()
    return (sum(degs) == 2 * (g.n - 1) and degs.count(1) == 2 and max(degs) <= 2
            and g.is_connected())


def is_star_graph(g) -> bool:
    """True iff g is a star K_{1,n-1} (order >= 2), or K_1."""
    if g.n == 1:
        return True
    degs = g.degrees()
    return sum(degs) == 2 * (g.n - 1) and max(degs) == g.n - 1 and g.is_connected()


def is_clique_plus_isolated(g) -> bool:
    """True iff g is a complete graph on >= 2 vertices plus isolated vertices."""
    core = [v for v in range(g.n) if g.adj[v]]
    if len(core) < 2:
        return False
    core_mask = sum(1 << v for v in core)
    return all(g.adj[v] == core_mask & ~(1 << v) for v in core)


def reference_zir1(f):
    """``zir1-characterization`` by the path and star recognizers."""
    shape = is_path_graph(f.graph) or is_star_graph(f.graph)
    zir_lower = f.values["zir"]
    return (zir_lower == 1) == shape, f"zir={zir_lower} path-or-star={shape}"


def reference_extreme_n_minus_1(f):
    """``extreme-n-minus-1`` by the clique-plus-isolated recognizer."""
    if f.n < 2:
        return ""
    shape = is_clique_plus_isolated(f.graph)
    flags = [f.values[p] == f.n - 1 for p in ("zir", "Z", "Zbar", "ZIR")]
    return (all(flag == shape for flag in flags),
            f"values-at-n-1={flags} clique-plus-isolated={shape}")


def reference_abandons(f):
    """``Facts.abandons``: some maximal ZIr-set of size ZIR does not force."""
    target = f.values["ZIR"]
    return any(s.bit_count() == target and not f.forcing_table >> s & 1
               for s in bits_of(f.maximal_table))


def reference_zn2_complement_form(g):
    """``profiles.recognize_zn2_complement_form`` on the complement graph,
    with its universal vertices cut off, split by ``Graph.components``."""
    from zirkit.graphs import Graph, complement
    from zirkit.profiles import ComplementDecomposition
    c = complement(g)
    universal = sum(1 << v for v in range(c.n) if c.adj[v] == c.full & ~(1 << v))
    cut = Graph.from_adj([0 if (universal >> v) & 1 else row & ~universal
                          for v, row in enumerate(c.adj)])
    inner = cut.adj

    complete_sizes: list[int] = []
    bipartite: list[tuple[int, int]] = []
    pooled_empty = 0
    for comp in cut.components():
        if comp & universal:
            continue
        size = comp.bit_count()
        if size == 1:
            pooled_empty += 1
            continue
        if all(inner[u] == comp & ~(1 << u) for u in bits_of(comp)):
            if size == 2:
                bipartite.append((1, 1))
            else:
                complete_sizes.append(size)
            continue
        side = inner[(comp & -comp).bit_length() - 1]
        other = comp & ~side
        if any(inner[u] != (other if (side >> u) & 1 else side) for u in bits_of(comp)):
            return False, None, False
        q, p = sorted((side.bit_count(), other.bit_count()))
        bipartite.append((q, p))

    bipartite.sort(key=lambda qp: (-qp[0], -qp[1]))
    if pooled_empty:
        bipartite.append((0, pooled_empty))
    decomp = ComplementDecomposition(
        complete_sizes=tuple(sorted(complete_sizes, reverse=True)),
        bipartite_parts=tuple(bipartite),
        universal_count=universal.bit_count(),
    )
    t, k = len(decomp.complete_sizes), len(decomp.bipartite_parts)
    lower_form = (t == 0 and k >= 1
                  and (bipartite[0][0] >= 2 or (bipartite[0][0] == 1 and k >= 2)))
    return True, decomp, lower_form
