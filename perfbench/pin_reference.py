"""Pin the reference outcome of every pooled solve into reference.json.

    python3 perfbench/pin_reference.py

For each instance of the solve-highdim and sweep-audit pools (full size
and --smoke size) it records the stop reason, N_r, N_s, a digest of the
accept/shrink sequence and, for sweep-audit, the audit check statuses.
The benchmark's gate fails a task whose outcome differs.  Run it only on
a commit whose search behaviour is the intended reference, and commit the
result; the file names the commit and source digest it was pinned from.
"""

import json
import sys

import run


def main() -> int:
    run.load_library()
    import workloads

    prov = run.provenance(seed=0)
    ref = {"pinned_from": {"git_commit": prov["git_commit"],
                           "src_sha256": prov["src_sha256"]}}
    for cls in (workloads.SolveHighdim, workloads.SweepAudit):
        table = {}
        for smoke in (True, False):
            wl = cls(smoke=smoke)
            for inst in wl.instances():
                key, outcome = wl.pin(inst)
                table[key] = outcome
        ref[cls.name] = table
        print(f"{cls.name}: {len(table)} instances", file=sys.stderr)
    # one line per instance keeps diffs of a re-pin readable
    sections = [f"{json.dumps(name)}: {{\n" + ",\n".join(
                    f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                    for k, v in sorted(table.items())) + "\n}"
                for name, table in ref.items()]
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(sections) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
