"""A trigger screens each source delta once per distinct program, and
once per fused pass: every view reads exactly what its own kernel would.

Two levels:

* the passes a trigger runs (``codegen._Screens``) return, for each
  reader, the kept dicts in order and the ``ge`` / ``bp`` tallies of the
  reader's own standalone screen kernel — fused programs, shared
  programs and a stacked view's delta as the source;
* a commit counts into each view's row what the view's own screen
  stage (``CompiledViewPlan.screen``) counts, and charges the recorder
  the ``filter_*`` totals of those stages — with multi-disjunct,
  always-relevant, FK-probe and statically dropped screens among them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import BaseRef
from repro.core import codegen
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.instrumentation import CostRecorder, recording

#: What a screen counts into its view's row.
SCREEN_ROW_COUNTS = (
    "tuples_screened", "tuples_irrelevant", "tuples_static_dropped",
    "static_tuples_dropped", "fk_probe_tuples_dropped",
)
FILTER_CHARGES = ("filter_tuples_checked", "filter_ground_evals", "filter_bound_probes")

P_KEYS = range(4)


def _maintainer():
    db = Database()
    db.create_relation("p", ["B", "C"], [(b, b * 10) for b in P_KEYS])
    db.create_relation("r", ["A", "B"], [(1, 0), (2, 1), (3, 1)])
    db.create_relation("s", ["E", "D"], [(1, 100), (2, 150)])
    db.declare_key("p", ["B"])
    db.declare_foreign_key("r", ["B"], "p", ["B"])
    db.declare_constraint("s", "D >= 100")
    r, s = BaseRef("r"), BaseRef("s")
    views = {
        # Three programs opening with ``A < 3``: one fused pass.
        "lo": r.select("A < 3"),
        "lo_b": r.select("A < 3 and B >= 1"),
        "lo_band": r.product(s).select("A < 3 and E >= B and E <= A"),
        # ``lo``'s program once the join equality's probe is left out.
        "lo_join": r.product(s).select("A < 3 and A = E"),
        # Two screens: a program of its own.
        "either": r.select("A < 1 or B = 2"),
        # No condition (constant TRUE): no kernel.
        "all": r.project(["A"]),
        # p is the probe side of an FK reduction.
        "fk": r.join(BaseRef("p")).project(["A", "B"]),
        # s is statically irrelevant under ``D >= 100``.
        "static": r.product(s).select("A = E and D < 50"),
        # Two readers of a view delta, fused on ``B >= 1``.
        "up_b": BaseRef("lo").select("B >= 1"),
        "up_ba": BaseRef("lo").select("B >= 1 and A > 0"),
    }
    maintainer = ViewMaintainer(db)
    for name, expression in views.items():
        maintainer.define_view(name, expression)
    return db, maintainer


DB, MAINTAINER = _maintainer()

counts_st = st.dictionaries(
    st.tuples(st.integers(-2, 5), st.integers(-2, 5)), st.integers(1, 3), max_size=6
)


def _readers(maintainer, names):
    """The trigger screening of a commit of ``names``: its passes, and
    per view reading a source, (source local, the view's own screen)."""
    merged = {e.ordinal: e for name in names for e in maintainer._reach_of(name)}
    views = [(entry, False) for _, entry in sorted(merged.items())]
    screens = codegen._Screens(views, sorted(names))
    sources = {name: f"a{k}" for k, name in enumerate(sorted(names))}
    readers = []
    for i, (entry, _) in enumerate(views):
        for dep in sorted(entry.dependencies & sources.keys()):
            readers.append((entry.view.definition.name, sources[dep], entry.plan._screen_kernels[dep]))
        sources[entry.view.definition.name] = f"d{i}"
    return screens, readers


def _run_pass(screens, src, p, inserted, deleted):
    namespace = dict(screens.bound, **{f"{src}i": inserted, f"{src}d": deleted})
    run = screens.passes.get(p)
    if run is not None:
        exec(run, namespace)  # noqa: S102 - the line the trigger runs
    return eval(screens.result[p], namespace)  # noqa: S307 - ditto


class TestPasses:
    def test_the_catalog_fuses_and_shares(self):
        screens, readers = _readers(MAINTAINER, ["r"])
        kernels = [reader for reader in readers if reader[2].kernel is not None]
        # Seven readers with kernels hold six programs (lo_join holds
        # lo's), five of them in two fused passes: one over r, one over
        # lo's delta.
        assert len(kernels) == 7
        assert len(screens.result) == 6
        assert len(set(screens.passes.values())) == 2
        kinds = {name: screen.kind for name, _, screen in readers}
        assert kinds["all"] == "pass"
        assert kinds["fk"] == "probed pass"
        assert kinds["static"] == "probed pass"
        _, p_readers = _readers(MAINTAINER, ["p"])
        assert {screen.kind for name, _, screen in p_readers if name == "fk"} == {"drop"}
        _, s_readers = _readers(MAINTAINER, ["s"])
        assert {screen.kind for name, _, screen in s_readers if name == "static"} == {"drop"}

    @settings(max_examples=60, deadline=None)
    @given(sources=st.fixed_dictionaries({"a0": st.tuples(counts_st, counts_st),
                                          "d0": st.tuples(counts_st, counts_st)}))
    def test_every_reader_reads_what_its_own_kernel_returns(self, sources):
        screens, readers = _readers(MAINTAINER, ["r"])
        for name, src, screen in readers:
            if screen.kernel is None:
                continue
            inserted, deleted = sources[src]
            p = screens.program[src, codegen.program_key(screen.source)]
            ki, kd, ge, bp = _run_pass(screens, src, p, inserted, deleted)
            want_ki, want_kd, want_ge, want_bp = screen.kernel(inserted, deleted)
            assert list(ki.items()) == list(want_ki.items()), name
            assert list(kd.items()) == list(want_kd.items()), name
            assert (ge, bp) == (want_ge, want_bp), name


#: One transaction: r rows referencing p's keys, p rows no r row
#: references, s rows within s's constraint.
ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("r"), st.tuples(st.integers(-2, 5), st.sampled_from(P_KEYS)), st.booleans()),
        st.tuples(st.just("p"), st.integers(10, 13).map(lambda k: (k, k)), st.booleans()),
        st.tuples(st.just("s"), st.tuples(st.integers(-2, 5), st.integers(100, 103)), st.booleans()),
    ),
    min_size=1,
    max_size=5,
)


class TestCommits:
    @settings(max_examples=40, deadline=None)
    @given(stream=st.lists(ops_st, min_size=1, max_size=4))
    def test_each_view_counts_what_its_own_screen_counts(self, stream):
        db, maintainer = _maintainer()
        names = maintainer.view_names()
        delivered = []
        maintainer.subscribe("lo", lambda view, delta: delivered.append(delta))
        for ops in stream:
            inserts, deletes = {}, {}
            for relation, row, delete in ops:
                present = row in db.relation(relation)
                (deletes if delete and present else inserts if not present else {}).setdefault(
                    relation, set()).add(row)
            rows = {name: maintainer._entry(name).row for name in names}
            before = {name: rows[name].snapshot() for name in names}
            delivered.clear()
            with recording(CostRecorder()) as recorder:
                deltas = db.apply(inserts={k: sorted(v) for k, v in inserts.items()},
                                  deletes={k: sorted(v) for k, v in deletes.items()})
            arrived = {name: delta for name, delta in deltas.items() if not delta.is_empty()}
            if delivered:
                arrived["lo"] = delivered[0]
            charged_total: dict[str, int] = {}
            for name in names:
                plan = maintainer.compiled_plan(name)
                counted, charged = [], []
                for dep in sorted(maintainer.dependencies(name) & arrived.keys()):
                    plan.screen(dep, arrived[dep], counted, charged)
                want = dict.fromkeys(SCREEN_ROW_COUNTS, 0)
                for metric, amount in counted:
                    if metric in want:
                        want[metric] += amount
                have = {metric: rows[name].get(metric) - before[name].get(metric, 0)
                        for metric in SCREEN_ROW_COUNTS}
                assert have == want, name
                for metric, amount in charged:
                    charged_total[metric] = charged_total.get(metric, 0) + amount
            for metric in FILTER_CHARGES:
                assert recorder.get(metric) == charged_total.get(metric, 0), metric
        maintainer.verify_all()
