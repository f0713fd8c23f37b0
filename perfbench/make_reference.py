"""Regenerate stale entries of ``perfbench/reference.json``.

    python3 perfbench/make_reference.py

A reference workload's digests are made again, once per input seed, when
``reference.json`` has none for it or stores them for another spec hash
than the workload's current one; every other entry is kept as it is.  Run
it only after changing a workload spec, never to make a failing check
pass: the benchmark exists to notice when the program starts computing
something else.
"""

from __future__ import annotations

import json
import sys

import run


def stale(reference: dict, workloads) -> list[str]:
    """Reference workloads whose stored digests do not fit their spec."""
    specs = reference.get("specs", {})
    digests = reference.get("digests", {})
    return [
        name
        for name in workloads.WORKLOADS
        if name not in workloads.REFERENCE_OF
        and (
            specs.get(name) != workloads.spec_sha256(name)
            or len(digests.get(name, ())) != workloads.REFERENCE_SLOTS
        )
    ]


def main() -> int:
    if not run.prepare_environment():
        return 2
    import workloads

    reference = workloads.load_reference(run.REFERENCE)
    names = stale(reference, workloads)
    if not names:
        print("reference.json is up to date")
        return 0
    reference["slots"] = workloads.REFERENCE_SLOTS
    reference.setdefault("specs", {})
    reference.setdefault("digests", {})
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        digests = []
        for slot in range(workloads.REFERENCE_SLOTS):
            prepared = workloads.setup(name, slot)
            try:
                report, _ = workloads.run_once(prepared, run.OUT_DIR)
            finally:
                prepared.close()
            digests.append(workloads.report_digest(report))
            print(f"{name} slot {slot}: {digests[-1][:12]}", flush=True)
        reference["specs"][name] = workloads.spec_sha256(name)
        reference["digests"][name] = digests
        run.REFERENCE.write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
