"""Record the survey rows the survey workloads are checked against.

    python3 perfbench/record_survey_reference.py

Runs ``zirkit survey --order 6`` once and writes its rows, with graph6
example strings removed, to perfbench/survey_reference.json.  Rerun it only
when a change to the survey's results is intended and has been reviewed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    rc, stdout, _ = workloads.call_cli(workloads.survey_argv(1))
    if rc != 0:
        sys.exit(f"survey exited with {rc}")
    rows = [reference.without_graph6(r) for r in reference.survey_rows(stdout)]
    workloads.SURVEY_REFERENCE.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {workloads.SURVEY_REFERENCE}")
