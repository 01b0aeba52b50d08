"""Source invariants the determinism guarantees rest on, checked by AST:
one plain function per check. An allowed exception is a named constant
below that states its reason (README, "Determinism checks").
"""

import ast
import functools
import itertools
import re
from pathlib import Path

import pytest

from repro.harness import knobs
from repro.workloads.registry import WORKLOADS, workload_instances

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")

#: Package-relative path -> parsed module, for every module of the package.
SOURCES = {
    path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(PACKAGE.rglob("*.py"))
}

KNOB_NAME = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")
BACKTICKED = re.compile(r"`([^`]+)`")

#: Outside ``workloads/``, the only calls allowed to construct a class the
#: registry builds.
REGISTRY_BYPASS = {
    ("harness/experiments/fig15.py", "NeighborPopulate"): "costs fig15's tiling init as an "
    "Edgelist-to-CSR build of the reversed graph, an input no registry spec names; its "
    "cycles never reach the result cache or a counter pin",
}

#: Each fast path: its oracle, and the tier-1 test that compares the two.
BACKEND_PAIRS = {
    "BatchHierarchy": ("FastHierarchy", "tests/cache/test_walk_fuzz.py::test_walk_matches_oracle"),
    "EvictionBufferModel.run": (
        "the DES Simulator", "tests/des/test_fastloop.py::test_schedule_property"
    ),
    "GSharePredictor.simulate_array": (
        "simulate", "tests/cpu/test_gshare_fuzz.py::test_gshare_walk_matches_oracle"
    ),
    "CobraMachine.binning_counts": (
        "the Python machines", "tests/core/test_binning_counts.py::test_c_path_matches_the_oracle"
    ),
    "BinSpec.binned": (
        "np.bincount", "tests/pb/test_binning_native.py::test_c_path_matches_the_oracle"
    ),
    "BinnedStream.order": (
        "the stable argsort", "tests/pb/test_binning_native.py::test_c_path_matches_the_oracle"
    ),
    "CBufferModel.occupancy_before": (
        "the group cumulative count",
        "tests/pb/test_binning_native.py::test_c_path_matches_the_oracle",
    ),
    "prefetch_scan_native": (
        "StreamPrefetcher.observe",
        "tests/cache/test_kernel_backends.py::test_stream_table_matches_observe",
    ),
}

#: Float-valued counters that must never be compared with ``==``.
FLOAT_COUNTERS = {
    "cycles", "total_cycles", "branch_mispredicts", "stall_fraction",
    "coherence_cycles", "parallel_cycles", "single_core_cycles",
}


def dotted(node):
    """``a.b.c`` for a Name/Attribute chain; ``?`` stands for anything else."""
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else "?"


def nodes(kind):
    """``(module, node)`` for every node of type ``kind`` in the package."""
    for rel, tree in SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, kind):
                yield rel, node


def strings_in(node, tree):
    """The strings ``node`` spells: literals, and module-level string
    constants it names."""
    consts = {
        target.id: stmt.value.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }
    for sub in ast.walk(node):
        value = consts.get(sub.id) if isinstance(sub, ast.Name) else getattr(sub, "value", None)
        if isinstance(value, str):
            yield value


def defines(test_id):
    """Whether ``path::[Class::]name`` names a definition in that file."""
    path, *names = test_id.split("::")
    body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        found = [n for n in body if getattr(n, "name", None) == name]
        if not found:
            return False
        body = found[0].body
    return True


def markdown_table(text, header):
    """Cells of each row of the markdown table whose header row starts ``header``."""
    lines = text.split(f"\n{header}", 1)[1].splitlines()[2:]
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines)
    return [[cell.strip() for cell in line.strip("| ").split("|")] for line in rows]


def test_every_repro_name_is_a_registered_knob():
    unknown = {
        (rel, name)
        for rel, node in nodes(ast.Constant)
        if isinstance(node.value, str)
        for name in KNOB_NAME.findall(node.value)
        if name not in knobs.KNOBS
    }
    assert unknown == set()


def test_knobs_are_read_only_through_the_registry():
    raw = []
    for rel, node in nodes((ast.Call, ast.Subscript)):
        if rel == "harness/knobs.py":
            continue
        if isinstance(node, ast.Call) and dotted(node.func).endswith(("environ.get", "getenv")):
            keys = node.args[:1]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and (
            dotted(node.value).endswith("environ")
        ):
            keys = [node.slice]
        else:
            continue
        if any(KNOB_NAME.search(s) for key in keys for s in strings_in(key, SOURCES[rel])):
            raw.append(f"{rel}:{node.lineno}")
    assert raw == []


@functools.cache
def emitted_events():
    """``(name, is_prefix, fields, where)`` of every ``telemetry.emit`` and
    ``telemetry.emit_timed`` call; a ``"prefix_" + x`` or f-string name
    gives its literal head."""
    emitted = []
    for rel, node in nodes(ast.Call):
        method = getattr(node.func, "attr", None)
        if method not in ("emit", "emit_timed") or not node.args:
            continue
        if not dotted(node.func.value).endswith("telemetry"):
            continue
        first = node.args[0]
        name = first.left if isinstance(first, ast.BinOp) else (
            first.values[0] if isinstance(first, ast.JoinedStr) else first
        )
        where = f"{rel}:{node.lineno}"
        assert isinstance(name, ast.Constant), f"{where}: event name is not static"
        fields = {kw.arg for kw in node.keywords} - {"duration_s"}
        emitted.append((name.value, name is not first, fields, where))
    return emitted


#: EXPERIMENTS.md's telemetry table: event -> its documented fields.
DOCUMENTED_EVENTS = {
    event: set(BACKTICKED.findall(fields))
    for events, fields in markdown_table(EXPERIMENTS, "| event | fields |")
    for event in BACKTICKED.findall(events)
}


def test_telemetry_events_match_the_experiments_table():
    for name, is_prefix, fields, where in emitted_events():
        rows = [e for e in DOCUMENTED_EVENTS if (e.startswith(name) if is_prefix else e == name)]
        assert rows, f"{where}: event {name!r} has no EXPERIMENTS.md row"
        for row in rows:
            missing = fields - DOCUMENTED_EVENTS[row]
            assert not missing, f"{where}: {row} lacks {missing}"


@pytest.mark.parametrize("event", sorted(DOCUMENTED_EVENTS))
def test_documented_event_is_emitted(event):
    assert any(
        event.startswith(name) if is_prefix else event == name
        for name, is_prefix, _, _ in emitted_events()
    ), f"EXPERIMENTS.md documents {event!r}, which nothing emits"


def test_workloads_are_built_only_by_the_registry():
    classes = {type(w).__name__ for _, _, w in workload_instances(8, include_extensions=True)}
    assert len(classes) == len(WORKLOADS)
    sites = {
        (rel, dotted(node.func).rsplit(".", 1)[-1])
        for rel, node in nodes(ast.Call)
        if not rel.startswith("workloads/") and dotted(node.func).rsplit(".", 1)[-1] in classes
    }
    assert sites == set(REGISTRY_BYPASS)


def test_raw_dataset_files_are_read_only_by_the_ingester():
    readers = {
        rel
        for rel, node in nodes(ast.Call)
        if dotted(node.func).rsplit(".", 1)[-1] in ("open", "read_text", "read_bytes")
        and any(s.endswith((".mtx", ".snap", ".el")) for s in strings_in(node, SOURCES[rel]))
    }
    assert readers <= {"graphs/ingest.py"}


@pytest.mark.parametrize("fast", sorted(BACKEND_PAIRS))
def test_every_fast_path_names_its_oracle_test(fast):
    oracle, test_id = BACKEND_PAIRS[fast]
    assert defines(test_id), f"{fast} vs {oracle}: {test_id} does not exist"


def test_every_vectorized_predictor_is_paired():
    vectorized = {
        f"{node.name}.simulate_array"
        for _, node in nodes(ast.ClassDef)
        if any(getattr(f, "name", None) == "simulate_array" for f in node.body)
    }
    assert vectorized <= set(BACKEND_PAIRS)


def test_no_mutable_default_arguments():
    mutable = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    shared = [
        f"{rel}:{node.lineno}"
        for rel, node in nodes((ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for default in node.args.defaults + [d for d in node.args.kw_defaults if d]
        if isinstance(default, mutable)
        or isinstance(default, ast.Call)
        and dotted(default.func) in ("list", "dict", "set", "bytearray")
    ]
    assert shared == []


def test_no_float_equality_on_counters():
    compared = [
        f"{rel}:{node.lineno}"
        for rel, node in nodes(ast.Compare)
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(getattr(side, "attr", None) in FLOAT_COUNTERS
                for side in [node.left, *node.comparators])
    ]
    assert compared == []


def test_no_id_calls():
    # CPython reuses an address once its object is freed, so id()-keyed
    # state can alias two different objects.
    calls = [f"{rel}:{node.lineno}" for rel, node in nodes(ast.Call) if dotted(node.func) == "id"]
    assert calls == []


def test_sweep_worker_sets_no_globals():
    (worker,) = [n for n in SOURCES["harness/faults.py"].body
                 if getattr(n, "name", "") == "_worker_main"]
    assert not [n for n in ast.walk(worker) if isinstance(n, (ast.Global, ast.Nonlocal))]


#: Every row of the paper table and of the extensions table.
CLAIM_ROWS = [
    row for header in ("| ID | Paper's claim |", "| ID | What |")
    for row in markdown_table(EXPERIMENTS, header)
]


@pytest.mark.parametrize("row", CLAIM_ROWS, ids=lambda row: (BACKTICKED.findall(row[0]) or row)[0])
def test_every_shape_claim_names_the_bench_that_asserts_it(row):
    benches = re.findall(r"`(benchmarks/test_\w+\.py::test_\w+)`", row[-1])
    if "✓" in row[-2] or "✗" in row[-2]:
        assert benches, f"{row[0]} names no bench"
    for bench in benches:
        assert defines(bench), f"{row[0]}: {bench} does not exist"
