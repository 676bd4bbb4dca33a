"""Record the reference outputs every benchmark run is checked against.

    python3 bench/record.py

Run from the root of a checkout whose outputs are known good.  It runs each
CLI call as a user would and each library operation once, and writes
bench/reference.json.  Operations whose input comes from the seed have no
reference: they are checked against an analytic bound and a second
computation instead.
"""

from __future__ import annotations

import json
import os
import sys

from common import (ESTIMATE_CONFIGS, REFERENCE_PATH, SWEEPS,
                    cli_commands, pinned_env, run_process)


def cli_outputs(workload: str, names, env) -> dict:
    out = {}
    for name, command in zip(names, cli_commands(workload, {})):
        code, stdout, err, _ = run_process(["-m", "nuceft.cli",
                                            *command.argv], env)
        if code != 0:
            raise SystemExit(f"{command.argv} exited {code}: {err}")
        out[name] = command.parse(stdout)
    return out


def main() -> int:
    root = os.getcwd()
    env = pinned_env(root)
    os.environ.update(env)        # one BLAS thread before numpy loads
    sys.path.insert(0, os.path.join(root, "src"))
    import library
    import session

    ref = {"estimate-cli": cli_outputs("estimate-cli", ESTIMATE_CONFIGS, env),
           "sweep-cli": cli_outputs("sweep-cli", SWEEPS, env)}
    for kind, rows in ref["sweep-cli"].items():
        failed = [row for row in rows[1:] if row[-1]]
        if failed:
            raise SystemExit(f"sweep {kind} has failing points: {failed[:3]}")
    ref["pipeline"] = {op.kind: op.run().to_json_dict()
                       for op in session.pipeline_ops({})}
    for workload in ("oracle", "algebra"):
        lib = library.Session(workload, 0, None)
        ref[workload] = {op.kind: lib.canonical(op.run()) for op in lib.ops
                         if op.kind not in lib.extra_checks}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
