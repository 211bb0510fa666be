"""Output check for benchmark batches.

Every operation (a manifest entry or a planning call) must end the way it
did when ``expected.json`` was recorded: the same status (completed, refused,
error type) and the same subset verdicts. Entries marked ``known_defect``
reproduce a defect of the recorded commit: raising the recorded error counts
as a known failure, completing counts as fixed, anything else fails. Across
iterations of one run, every report file and event digest must be
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(workload: str) -> dict:
    return json.loads(EXPECTED_PATH.read_text())[workload]


def hash_outputs(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the batch wrote, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def _error_type(traceback_text: str) -> str:
    last = traceback_text.strip().splitlines()[-1]
    return last.split(":", 1)[0].rsplit(".", 1)[-1]


def outcomes(summary: dict, plans: list[dict]) -> dict[str, dict]:
    """Operation name -> observed outcome, from summary.json and the planning calls."""
    found = {}
    for row in summary["runs"]:
        outcome = {"status": row["status"]}
        if row["status"] == "completed":
            outcome["verdicts"] = row["verdicts"]
            outcome["event_digest"] = row["event_digest"]
        elif row["status"] == "error":
            outcome["error"] = _error_type(row["error"])
        found[row["name"]] = outcome
    for plan in plans:
        outcome = {"status": plan["status"]}
        if plan["status"] == "error":
            outcome["error"] = plan["error_type"]
        else:
            outcome["value"] = plan["value"]
        found[plan["name"]] = outcome
    return found


@dataclass
class Tally:
    """Operations attempted and failed in one benchmark run."""

    attempted: int = 0
    known_failures: int = 0
    problems: list[str] = field(default_factory=list)
    #: (iteration label, operation) pairs with at least one problem
    bad: set = field(default_factory=set)

    @property
    def failed(self) -> int:
        return len(self.bad)

    def fail(self, label: str, op: str, problem: str) -> None:
        self.bad.add((label, op))
        self.problems.append(f"{label}: {op}: {problem}")


def check_iteration(expected: dict, found: dict, label: str, tally: Tally, check_verdicts: bool = True) -> None:
    """Compare one iteration's outcomes with the recorded expectations."""
    for name in sorted(set(expected) | set(found)):
        tally.attempted += 1
        want, got = expected.get(name), found.get(name)
        if want is None or got is None:
            tally.fail(label, name, "unexpected operation" if want is None else "missing operation")
            continue
        if want.get("known_defect"):
            if got["status"] == "error" and got.get("error") == want["error"]:
                tally.known_failures += 1
            elif got["status"] not in ("completed", "ok"):
                tally.fail(label, name, f"known defect {want['error']} became {got['status']} {got.get('error')}")
            continue
        if got["status"] != want["status"] or got.get("error") != want.get("error"):
            tally.fail(label, name, f"status {got['status']} {got.get('error') or ''}, "
                                    f"expected {want['status']} {want.get('error') or ''}")
            continue
        if check_verdicts:
            for key, verdict in want.get("verdicts", {}).items():
                if verdict != "any" and got["verdicts"].get(key) != verdict:
                    tally.fail(label, name, f"subset {key} verdict {got['verdicts'].get(key)}, expected {verdict}")


def _op_of(file_name: str) -> str:
    return file_name.split(".", 1)[0]


def check_repeatable(first: dict, later: dict, label: str, tally: Tally, traced: bool = False) -> None:
    """Reports, event digests and planning values must not change between iterations.

    A traced iteration's error reports (and summary.json, which repeats them)
    carry tracebacks through the tracing wrappers, so their bytes are not
    compared; statuses and error types still are.
    """
    for name, want in first["outcomes"].items():
        got = later["outcomes"].get(name, {})
        for key in ("status", "error", "event_digest", "value"):
            if want.get(key) != got.get(key):
                tally.fail(label, name, f"{key} differs from the first iteration")
    errored = {name for name, outcome in first["outcomes"].items() if outcome["status"] == "error"}
    for file_name in sorted(set(first["files"]) | set(later["files"])):
        if traced and (_op_of(file_name) in errored or (errored and file_name == "summary.json")):
            continue
        if first["files"].get(file_name) != later["files"].get(file_name):
            tally.fail(label, _op_of(file_name), f"{file_name} bytes differ from the first iteration")
