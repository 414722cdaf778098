"""Record the reference result of every operation the workloads can issue.

Run once, at the commit that defines the benchmark::

    python3 perfbench/record.py

Commands run in this process one after another (their outputs do not
depend on cache state); library calls run on the same warm session as
``lib_warm``.  Each entry stores what ``run.py`` compares later and whether
the result met the documented contract (``valid``); a result that did not
is a known defect, listed on standard output.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    dt = run.import_package()
    run.OUT_DIR.mkdir(exist_ok=True)
    work = run.OUT_DIR / "work"
    work.mkdir(exist_ok=True)
    cli_ref, lib_ref = {}, {}
    for name in ("cli_demod", "cli_circuit"):
        for op in workloads.all_ops(name):
            rc, stdout, _stderr, text = run.invoke_cli(dt.cli, op, work)
            problems, _ = checks.check_cli(op, rc, stdout, text)
            cli_ref[op.key] = {"observed": checks.cli_observed(op, rc, stdout, text),
                               "valid": not problems}
            if problems:
                print(f"defect: {op.key}: {'; '.join(problems[:3])}")
    workloads.lib_warm_up(dt)
    for op in workloads.all_ops("lib_warm"):
        result = workloads.lib_call(dt, op)
        problems = checks.check_lib(result)
        lib_ref[op.key] = {"fingerprint": result["fingerprint"], "valid": not problems}
        if problems:
            print(f"defect: {op.key}: {'; '.join(problems)}")
    reference = {"revision": run.revision(), "cli": cli_ref, "lib": lib_ref}
    run.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(cli_ref)} commands and {len(lib_ref)} library calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
