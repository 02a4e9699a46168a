"""End-to-end benchmark of the ``gaussfocal`` command.

    python3 bench/run.py --workload extract --seed 1729 --seconds 30 --trace 0

Each workload is a list of ``gaussfocal`` invocations ("children").  One
pass runs them one after another, each as its own process; the loop is
closed (one caller, one child at a time) and repeats passes for
``--seconds``.  Every child writes its records with ``--jsonl-out`` and
every record goes through the correctness gate:

* the child exits 0 and prints no ``problem:`` line, i.e. every record
  matches the package's frozen expectation table;
* the ``det4`` custom hypersurface reaches the integers of
  scorza-max-gen m=3 (through the parser, sparse programs and pencil
  sampler instead of the rank-locus path);
* every pass of a run yields the same canonical JSON, and at seed 1729
  its sha256 equals the one frozen in FROZEN_SHA256.

With ``--trace 0`` every child runs under bench/probe.py, which times a
fixed reference kernel every 10 ms of the child's wall time, and the
last stdout line reports the end-to-end metrics (medians over passes).
Each child's times have the probe's own time taken out and are scaled
by probe.NOMINAL_KERNEL_S over the child's mean kernel time: seconds at
the host's nominal speed, so that the slow spells of a shared host
(up to 1.8x, for seconds to minutes) do not read as program changes.

With ``--trace 1`` it runs one plain pass (no probe) and one pass under
bench/trace.py, requires both to print the same canonical JSON, checks
that every layer named busy for the workload in bench/interactions.json
was reached (and every layer named idle was not), and reports the
per-layer metrics, in raw seconds, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from probe import NOMINAL_KERNEL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# What the installed ``gaussfocal`` console script runs.
ENTRY = "import sys; from gaussfocal.cli import main; sys.exit(main())"

# The acceptance configuration's line count; one derived prime per
# child keeps a pass short enough to repeat within a run.
COMMON = ["--lines", "8", "--primes", "1"]

WORKLOADS = {
    "extract": [
        ["run", "scorza-max-skew", "--m", "3", "--trials", "1",
         "--verify", "basic"],
    ],
    "fibre": [
        ["run", "scorza-sy-skew", "--m", "3", "--trials", "3",
         "--verify", "basic"],
        ["run", "scorza-sy-gen", "--m", "4", "--trials", "1",
         "--verify", "basic"],
    ],
    "breadth": [
        ["run", "severi-2"],
        ["run", "severi-4"],
        ["run", "severi-8"],
        ["run", "severi-16", "--features", "albert"],
        ["run", "scorza-sy-sym", "--m", "3"],
        ["run", "scorza-max-sym", "--m", "3"],
        ["run", "hyperband"],
        ["custom", "--spec", "{spec:cone}"],
        ["custom", "--spec", "{spec:det4}"],
        ["custom", "--spec", "{spec:skew7}"],
    ],
}
BREADTH_FLAGS = ["--trials", "1", "--verify", "full"]

# sha256 of each workload's canonical JSON at seed 1729, frozen from the
# commit that introduced this benchmark.
GOLDEN_SEED = 1729
FROZEN_SHA256 = {
    "extract": "72eaf751fbcc83a34168ce1b9a83daf878a734bd01fe37da83bebdb76e3f21c1",
    "fibre": "24ef188ed8fa4243620ab3e65c26e17361fb9132b0504a63361ce95c1ff8781b",
    "breadth": "977ba775ed1c6cc248d91b3995366be534cde04672c5c4ad7c861e61cfc5e0a1",
}

# scorza-max-gen m=3 is the 4x4 determinantal hypersurface, so the det4
# spec must reproduce these integers from the frozen expectation table.
DET4_EXPECT = {"n": 15, "dim_x": 14, "r": 6, "k": 8, "mu": 2,
               "reduced_degree": 3}


def _det_terms(rows, cols):
    """Signed monomials of the determinant of the generic matrix x(4i+j)
    restricted to ``rows`` x ``cols``, as one expression string."""
    terms = []
    for perm in itertools.permutations(range(len(cols))):
        inversions = sum(perm[a] > perm[b]
                         for a in range(len(perm)) for b in range(a + 1, len(perm)))
        mono = "*".join(f"x{4 * i + cols[j]}" for i, j in zip(rows, perm))
        terms.append(("- " if inversions % 2 else "+ ") + mono)
    return " ".join(terms).lstrip("+ ")


def custom_specs():
    """The custom spec files the breadth workload feeds to ``custom``."""
    full = range(4)
    minors = [_det_terms([r for r in full if r != i], [c for c in full if c != j])
              for i in full for j in full]
    return {
        "cone": {"ambient_dim": 4, "generators": ["x0*x2 - x1^2"],
                 "singular_generators": ["x0", "x1", "x2"]},
        "det4": {"ambient_dim": 15,
                 "generators": [_det_terms(list(full), list(full))],
                 "singular_generators": minors},
        "skew7": {"matrix": {"shape": "skew", "rows": 7, "cols": 7},
                  "rank_bound": 4},
    }


class Child:
    """One finished ``gaussfocal`` process and what it reported."""

    def __init__(self, template, expected, wall, cpu, rss_kb, code, problems,
                 records, stats, samples):
        self.template = template
        self.expected = expected
        self.wall = wall
        self.cpu = cpu
        self.rss_kb = rss_kb
        self.code = code
        self.problems = problems
        self.records = records
        self.stats = stats
        # Probe kernel durations; the probe's time is taken out of every
        # figure below and the rest scaled to the nominal kernel speed.
        probe_s = sum(samples)
        self.scale = NOMINAL_KERNEL_S * len(samples) / probe_s if samples else 1.0
        self.net_wall = (wall - probe_s) * self.scale
        self.net_cpu = (cpu - probe_s) * self.scale
        # Share of the child's wall time left to the program, for times
        # measured inside it (record wall_time) that include probe samples.
        self.own_share = 1.0 - probe_s / wall

    def trial_times(self):
        return [rec["wall_time"] * self.own_share * self.scale
                for rec in self.records]

    @property
    def setup(self):
        return self.net_wall - sum(self.trial_times())

    def failed(self):
        """Records of this child that miss the gate (missing ones count)."""
        if self.code != 0 or self.problems or len(self.records) != self.expected:
            return self.expected
        if "{spec:det4}" in self.template:
            return sum(any(rec[key] != val for key, val in DET4_EXPECT.items())
                       for rec in self.records)
        return 0


def child_argv(workload, child, seed, specs):
    argv = [specs[a[6:-1]] if a.startswith("{spec:") else a for a in child]
    if workload == "breadth":
        argv += BREADTH_FLAGS
    return argv + COMMON + ["--seed", str(seed)]


def run_child(argv, template, workdir, mode):
    """Run one child; ``mode`` is "probe", "trace" or "plain"."""
    out = workdir / "records.jsonl"
    stats_path = workdir / "stats.json"
    err_path = workdir / "stderr.txt"
    for path in (out, stats_path):
        path.unlink(missing_ok=True)
    if mode == "plain":
        cmd = [sys.executable, "-c", ENTRY]
    else:
        cmd = [sys.executable, str(BENCH / f"{mode}.py"), str(stats_path)]
    cmd += argv + ["--jsonl-out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    trials = int(argv[argv.index("--trials") + 1])
    with open(err_path, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=env, cwd=workdir)
        try:
            # wait4 rather than wait: it returns the child's own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = [line for line in err_path.read_text().splitlines()
                if line.startswith("problem:")]
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text())
    records = []
    if out.exists():
        records = [json.loads(line) for line in out.read_text().splitlines()]
    # trace.py writes layer statistics there, probe.py kernel durations.
    data = json.loads(stats_path.read_text()) if stats_path.exists() else None
    return Child(template, trials, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss, proc.returncode, problems, records,
                 data if mode == "trace" else None,
                 (data or []) if mode == "probe" else [])


def run_pass(workload, seed, specs, workdir, mode):
    return [run_child(child_argv(workload, child, seed, specs), child,
                      workdir, mode)
            for child in WORKLOADS[workload]]


def canonical(children):
    """The ``--json`` bytes of all records of one pass, wall times dropped."""
    records = [{k: v for k, v in rec.items() if k != "wall_time"}
               for child in children for rec in child.records]
    records.sort(key=lambda rec: (rec["experiment"], rec["prime"], rec["trial"]))
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def gate(workload, seed, passes):
    """(records attempted, records failed) over all passes of a run."""
    attempted = sum(c.expected for p in passes for c in p)
    failed = sum(c.failed() for p in passes for c in p)
    texts = [canonical(p) for p in passes]
    golden = FROZEN_SHA256[workload] if seed == GOLDEN_SEED else None
    for children, text in zip(passes, texts):
        digest = hashlib.sha256(text.encode()).hexdigest()
        if text != texts[0] or (golden is not None and digest != golden):
            sys.stderr.write(f"{workload}: canonical JSON {digest} differs "
                             f"from the first pass or the frozen hash\n")
            failed += sum(c.expected for c in children)
    return attempted, min(failed, attempted)


def end_to_end(passes):
    records = [t for p in passes for c in p for t in c.trial_times()]
    return {
        "wall_s": (statistics.median(sum(c.net_wall for c in p) for p in passes), "s"),
        "cpu_s": (statistics.median(sum(c.net_cpu for c in p) for p in passes), "s"),
        "setup_s": (statistics.median(sum(c.setup for c in p) for p in passes), "s"),
        "trial_s_p50": (statistics.median(records) if records else 0.0, "s"),
        "peak_rss_mb": (statistics.median(max(c.rss_kb for c in p) / 1024
                                          for p in passes), "MB"),
    }


def per_layer(workload, plain, traced, interactions):
    """Per-layer metrics of one traced pass, plus coverage failures."""
    layers, counts, in_extraction = {}, {}, 0
    for child in traced:
        stats = child.stats or {"layers": {}, "counts": {}, "det_at_in_extraction": 0}
        for name, (calls, total, self_s) in stats["layers"].items():
            row = layers.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        for key, n in stats["counts"].items():
            counts[key] = counts.get(key, 0) + n
        in_extraction += stats["det_at_in_extraction"]

    extractions = layers.get("focal.extract_reduced_power", [0])[0]
    ratios = {
        "focal.det_at_per_extraction":
            in_extraction / extractions if extractions else 0.0,
        "trace_overhead":
            sum(c.wall for c in traced) / sum(c.wall for c in plain),
    }

    def value(metric):
        if metric in ratios:
            return ratios[metric], "ratio"
        if metric.startswith("focal.extract.path_"):
            return counts.get(metric, 0), "count"
        layer, stat = metric.rsplit(".", 1)
        row = layers.get(layer, [0, 0.0, 0.0])
        if stat == "calls":
            return row[0], "count"
        return (row[1] if stat == "total_s" else row[2]), "s"

    metrics, misses = {}, []
    for entry in interactions["per_layer"]:
        name = entry["name"]
        metrics[name] = value(name)
        got = metrics[name][0]
        if workload in entry.get("busy", ()) and got <= 0:
            misses.append(f"{name} is 0 on {workload}; expected busy")
        if workload in entry.get("idle", ()) and got != 0:
            misses.append(f"{name} is {got} on {workload}; expected 0")
    return metrics, misses


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaussfocal" / "cli.py").is_file():
        sys.stderr.write(f"no gaussfocal sources under {SRC}\n")
        return 2
    interactions = json.loads((BENCH / "interactions.json").read_text())

    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        specs = {}
        for name, spec in custom_specs().items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(spec))
            specs[name] = str(path)
        # Compile the package's bytecode once, as an installed copy has it.
        subprocess.run([sys.executable, "-c", "import gaussfocal.cli"],
                       env=dict(os.environ, PYTHONPATH=str(SRC)), check=False)

        passes, correct = [], True
        if args.trace:
            plain = run_pass(args.workload, args.seed, specs, workdir, "plain")
            traced = run_pass(args.workload, args.seed, specs, workdir, "trace")
            passes = [plain, traced]
            metrics, misses = per_layer(args.workload, plain, traced, interactions)
            for line in misses:
                sys.stderr.write(f"coverage: {line}\n")
            correct = not misses
        else:
            # Start another pass while it would end within half a pass of
            # the budget, so a run lasts about --seconds whatever the
            # pass length.
            start = perf_counter()
            while True:
                began = perf_counter()
                passes.append(run_pass(args.workload, args.seed, specs, workdir,
                                       "probe"))
                now = perf_counter()
                if now - start + (now - began) / 2 > args.seconds:
                    break
            metrics = end_to_end(passes)
        attempted, failed = gate(args.workload, args.seed, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sys.stderr.write(
        f"{args.workload}: {len(passes)} passes, "
        f"{sum(len(c.records) for p in passes for c in p)} records\n")
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
