"""kaes benchmark: one workload, measured end to end or traced per layer.

Run from the root of a kaes checkout:

    python3 perfbench/run.py --workload hisk-cv-cold --seed 1 --seconds 15 --trace 0

Workloads and metrics (with units) are listed in ``BENCHMARK.json`` and
defined in ``workloads.py`` and ``spans.py``.
Inputs are generated from ``--seed`` by ``synth.py`` (in a child process, so
generation is neither timed nor counted in peak memory) and cached under
``.perfbench/``: the essays per seed, the vectors file once for all seeds.
``kaes`` is imported from ``./src`` only; without it the benchmark exits with
code 2 and prints no result.

``--trace 0`` reports the end-to-end metrics, with times scaled to the speed
of a fixed reference task timed around every step (see ``reference.py``);
``--trace 1`` reports the per-layer metrics of a traced run (see
``spans.py``).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable table and the environment.
Each run also writes its full record, environment included, under
``.perfbench/results/``; a traced run's record also holds the spans of its
traced set-up and of its last traced call.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = 1  # steadier than 2 on a shared 2-core machine; recorded below
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Python randomises str hashes per process, which moves dict and set layouts
# and so the peak RSS of the same call by up to 10% from run to run; a fixed
# seed makes runs comparable.  It must be set before the interpreter starts.
HASH_SEED = "0"
STATE = ".perfbench"  # cache and scratch space, relative to the checkout root
# The program as it stands scores QWK 0.87 or more on every workload for
# seeds 1-40; far below that, its scores are wrong, however fast they came.
QWK_FLOOR = 0.75

HERE = Path(__file__).resolve().parent


def _import_kaes(src: Path) -> None:
    sys.path.insert(0, str(src))
    import kaes

    if Path(kaes.__file__).resolve().parent != (src / "kaes").resolve():
        raise SystemExit(f"error: imported kaes from {kaes.__file__}, not from {src}")


def _inputs(state: Path, seed: int) -> tuple[Path, Path]:
    """The essays generated for ``seed`` and the vectors file all seeds share.

    Both are made once, in a child process, and cached.  The cache directory
    is named after a digest of the generator, so editing it never reuses
    stale inputs.
    """
    generator = hashlib.sha256((HERE / "synth.py").read_bytes()).hexdigest()[:12]
    data = state / "data" / f"gen-{generator}"
    essays, vectors = data / f"essays-{seed}.tsv", data / "vectors.bin"
    if not (essays.exists() and vectors.exists()):
        subprocess.run([sys.executable, str(HERE / "synth.py"), "--seed", str(seed),
                        "--out", str(data)], check=True, timeout=300)
    return essays, vectors


def _code_fingerprint(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "kaes").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _same_as_before(state: Path, key: str, digest: str) -> str | None:
    """Compare an output digest with the one an earlier run of the same code stored."""
    path = state / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known and known[key] != digest:
        return f"output digest {digest} differs from {known[key]} of an earlier run ({key})"
    known[key] = digest
    tmp = path.with_suffix(f".{os.getpid()}")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "python_hash_seed": os.environ["PYTHONHASHSEED"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one kaes workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kaes" / "__init__.py").is_file():
        print(f"error: no kaes sources under {root / 'src'}; run from a kaes checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    _import_kaes(root / "src")
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    state = root / STATE
    essays, vectors = _inputs(state, args.seed)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=state))
    try:
        record = workloads.run(workload, essays, vectors, run_dir, args.seconds,
                               bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    key = f"{workload.name}|seed={args.seed}|code={_code_fingerprint(root)}"
    mismatch = _same_as_before(state, key, record["digest"])
    if mismatch:
        record["problems"].append(mismatch)
    if record["qwk"] < QWK_FLOOR:
        record["problems"].append(f"qwk {record['qwk']:.4f} is below {QWK_FLOOR}")
    record.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment())
    results = state / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))

    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(record["metrics"]):
        raise SystemExit(f"error: measured metrics {sorted(record['metrics'])} do not match "
                         f"BENCHMARK.json {sorted(units)}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in record["metrics"].items()}
    for name, m in metrics.items():
        print(f"{workload.name:<13} {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"{workload.name:<13} {'failed_share':<34} "
          f"{record['failed'] / max(1, record['attempted']):>14.6g} share")
    print(f"{workload.name:<13} {'essays_per_call':<34} {record['essays_per_call']:>14d} count")
    for name in ("raw_setup_s", "raw_wall_s", "reference_s"):
        if name in record:
            print(f"{workload.name:<13} {name:<34} {record[name]:>14.6g} s")
    print(f"{workload.name:<13} output sha256 {record['digest']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not record["problems"] and record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
