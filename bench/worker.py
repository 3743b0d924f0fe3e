"""One benchmark pass in a fresh interpreter, so every lltpaths memo table starts empty.

Usage: python3 bench/worker.py <src-dir>

The worker imports lltpaths from <src-dir>, prints "ready" (the parent's
set-up clock stops there), then reads a JSON pass spec from stdin:

  {"workload": ..., "seed": ..., "pass": ..., "trace": bool,
   "corrupt": bool, "spans_path": str | null}

It generates the pass's inputs from (seed, pass), runs the workload, checks
every output, and prints one JSON result line.  An empty spec ends the
worker right after set-up.  "corrupt" alters one output before the check
(or feeds the relation suites a corrupted polynomial) and exists for the
benchmark's negative-control tests.
"""

import os
import sys

SRC = os.path.abspath(sys.argv[1])
sys.path.insert(0, SRC)
import lltpaths  # noqa: E402  (set-up ends when this import returns)

if os.path.dirname(os.path.abspath(lltpaths.__file__)) != os.path.join(SRC, "lltpaths"):
    sys.exit(f"lltpaths was imported from {lltpaths.__file__}, not from {SRC}")
sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from digest import digest  # noqa: E402
from tracer import Tracer  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.tsv"

IDENTITY_MAX_N = 6
IDENTITY_PATHS = 1160
RELATIONS_MAX_N = 6
RELATIONS_INSTANCES = 2797
# The suites behind `lltpaths verify --suite all`; chromatic stops at n = 5 there.
SUITES = (
    "verify_unicellular",
    "verify_bounce_A",
    "verify_bounce_B",
    "verify_bounce_nd",
    "verify_generalized_bounce",
    "verify_dyck_relations",
    "verify_dual_bounce",
    "verify_chromatic_relations",
)
CHROMATIC_MAX_N = 5
RECURSION_N = 7
# Orientation requests cost 2^area masks.  The 14 paths of size 7 with area 18..20
# (0.3%) cost 1.3-5 s each, so one of them would decide a run's throughput on
# its own; they are left out.  Area 21 is refused by the library's bound.
ORIENTATION_AREA_MAX = 17

MAX_REPORTED_FAILURES = 5


def lib(name: str):
    """A lltpaths submodule (the package re-exports some functions under module names)."""
    return importlib.import_module(f"lltpaths.{name}")


def load_digests() -> dict:
    table: dict = {"path": {}, "area": {}, "size": {}, "chromatic": {}, "hl": {}, "nabla-e": {}, "nabla-p": {}}
    for line in DIGESTS.read_text().splitlines():
        kind, key, *cols = line.split("\t")
        if kind == "path":
            table["area"][key] = int(cols[0])
            table["path"][key] = dict(zip("mesp", cols[1:]))
            table["size"].setdefault(len(key) - key.count("e"), []).append(key)
        else:
            table[kind][key] = cols[0]
    return table


class Pass:
    """Timing and failure bookkeeping for one pass."""

    def __init__(self):
        self.work_s = 0.0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def work(self, fn, *args):
        """Time program work that is not one operation (path enumeration)."""
        t = time.perf_counter()
        out = fn(*args)
        self.work_s += time.perf_counter() - t
        return out

    def op(self, fn, *args, **kwargs):
        """Run one operation; return (ok, result). A raising operation has failed."""
        t = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
        except Exception as exc:  # noqa: BLE001 - every raise is a failed operation
            out, ok = f"{type(exc).__name__}: {exc}", False
        dt = time.perf_counter() - t
        self.work_s += dt
        self.latencies.append(dt)
        return ok, out

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(what)


# -- workloads -----------------------------------------------------------------


def identity_n6(rng, table, run, corrupt):
    """The `equality` sweep: colorings shifted by q -> q+1 against the orientation tally."""
    schroeder, llt = lib("schroeder"), lib("llt")
    paths = run.work(lambda: [p for n in range(1, IDENTITY_MAX_N + 1) for p in schroeder.enumerate_paths(n)])
    run.check(len(paths) == IDENTITY_PATHS, f"enumerated {len(paths)} paths, expected {IDENTITY_PATHS}")
    rng.shuffle(paths)

    def compare(p, bad):
        rhs = llt.orientation_e_expansion(p)
        if bad:
            rhs = rhs.scale(2)
        return (llt.llt(p).shift_q(1).convert("e") - rhs).is_zero()

    for i, p in enumerate(paths):
        ok, same = run.op(compare, p, corrupt and i == 0)
        run.check(ok and same is True, f"{p.word}: {same if not ok else 'routes disagree'}")
    return len(paths)


def relations_n6(rng, table, run, corrupt):
    """The suites behind `verify --suite all`, for n = 1..6 in the `verify` order.

    The seed changes nothing here.  The order fixes each operation's cost:
    the first suite at each n fills the llt memo for the others, and the
    chromatic suite reuses the smaller sizes, so a shuffled order would move
    cost between operations from seed to seed.
    """
    relations, llt, symfunc = lib("relations"), lib("llt"), lib("symfunc")
    kwargs = {}
    if corrupt:
        kwargs["llt_fn"] = lambda p: llt.llt(p) + symfunc.SymFunc.basis_element("m", (p.size,))
    instances = 0
    for n in range(1, RELATIONS_MAX_N + 1):
        for name in SUITES:
            if name == "verify_chromatic_relations" and n > CHROMATIC_MAX_N:
                continue
            ok, rep = run.op(getattr(relations, name), n, **kwargs)
            if not ok:
                run.check(False, f"{name}({n}): {rep}")
                continue
            instances += rep.instances
            run.attempted += rep.instances - len(rep.failures)
            run.check(rep.passed, f"{name}({n}): {len(rep.failures)} failures", weight=len(rep.failures))
    if instances != RELATIONS_INSTANCES:
        run.check(False, f"{instances} instances, expected {RELATIONS_INSTANCES}")
    return instances


def recursion_n7(rng, table, run, corrupt):
    """The axiomatic evaluator on every path of size 7, in an order permuted by the seed."""
    schroeder, relations = lib("schroeder"), lib("relations")
    paths = run.work(schroeder.enumerate_paths, RECURSION_N)
    expected = sorted(table["size"][RECURSION_N])
    run.check(sorted(p.word for p in paths) == expected, "enumerated words differ from the stored ones")
    rng.shuffle(paths)
    for i, p in enumerate(paths):
        ok, f = run.op(relations.recursion_evaluate, p)
        if ok and corrupt and i == 0:
            f = f.scale(2)
        want = table["path"].get(p.word, {}).get("e")
        run.check(ok and digest(f.to_obj()) == want, f"{p.word}: {f if not ok else 'digest mismatch'}")
    return len(paths)


def stratified(rng, pool: list, k: int) -> list:
    """One draw from each of k equal-count consecutive strata of the sorted pool."""
    return [rng.choice(pool[i * len(pool) // k : (i + 1) * len(pool) // k]) for i in range(k)]


def cli_requests(rng, table) -> list[tuple[list[str], str]]:
    """117 distinct CLI requests, each with the digest its result must have.

    Every draw is stratified (paths by area, Dyck paths and partitions by
    size), so the mix of cheap and expensive requests is nearly the same in
    every pass and the seed moves the sample, not the cost profile.
    """
    by_area = {n: sorted(table["size"][n], key=lambda w: (table["area"][w], w)) for n in (4, 5, 6, 7)}
    reqs = []
    for method in ("colorings", "orientations", "recursion"):
        for size in (5, 6, 7):
            pool = by_area[size]
            if method == "orientations":
                pool = [w for w in pool if table["area"][w] <= ORIENTATION_AREA_MAX]
            bases = list("mesp" * 2)
            rng.shuffle(bases)
            for w, basis in zip(stratified(rng, pool, len(bases)), bases):
                reqs.append((["expand", w, "--method", method, "--basis", basis], table["path"][w][basis]))
    small = sorted((w for n in (4, 5, 6) for w in by_area[n]), key=lambda w: (table["area"][w], w))
    for method in ("elw", "kostka"):
        for w in stratified(rng, small, 8):
            reqs.append((["schur", w, "--method", method], table["path"][w]["s"]))
    for w in stratified(rng, sorted(table["chromatic"], key=lambda w: (len(w), w)), 10):
        reqs.append((["chromatic", w], table["chromatic"][w]))
    for mu in stratified(rng, sorted(table["hl"], key=lambda m: (sum(map(int, m.split(","))), m)), 10):
        reqs.append((["hl", *mu.split(",")], table["hl"][mu]))
    for kind in ("nabla-e", "nabla-p"):
        for n, want in table[kind].items():
            reqs.append(([kind, n], want))
    rng.shuffle(reqs)
    return reqs


def cli_mix(rng, table, run, corrupt):
    """Distinct requests through `lltpaths.cli.main(argv + ["--json"])`, stdout captured."""
    cli = lib("cli")

    def call(argv, buf):
        with contextlib.redirect_stdout(buf):
            return cli.main(argv + ["--json"])

    requests = cli_requests(rng, table)
    for i, (argv, want) in enumerate(requests):
        buf = io.StringIO()
        ok, code = run.op(call, argv, buf)
        if not ok:
            problem = code
        elif code != 0:
            problem = f"exit code {code}"
        else:
            result = json.loads(buf.getvalue())["result"]
            if corrupt and i == 0:
                result["terms"] = result["terms"][:-1]
            problem = None if digest(result) == want else "digest mismatch"
        run.check(problem is None, f"{' '.join(argv)}: {problem}")
    return len(requests)


WORKLOADS = {
    "identity-n6": identity_n6,
    "relations-n6": relations_n6,
    "recursion-n7": recursion_n7,
    "cli-mix": cli_mix,
}


def run_pass(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    rng = random.Random(spec["seed"] * 1000 + spec["pass"])
    table = load_digests()
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
        missed = tracer.unwrapped_references()
        if missed:
            raise RuntimeError(f"tracing misses {missed}")
    run = Pass()
    items = workload(rng, table, run, spec.get("corrupt", False))
    out = {
        "items": items,
        "work_s": run.work_s,
        "latencies": run.latencies,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.layers()
        if spec.get("spans_path"):
            out["spans"] = tracer.write_spans(spec["spans_path"])
    return out


def main() -> None:
    spec = json.loads(sys.stdin.read() or "{}")
    if not spec:
        return
    result = run_pass(spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
