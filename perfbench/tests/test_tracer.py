"""Self-tests of the tracer: self-time arithmetic, wrapper install and removal."""

from __future__ import annotations

import pytest

from tracer import Tracer


class FakeClock:
    """A clock that moves only when the synthetic work says so."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def work(self, seconds: float) -> None:
        self.t += seconds


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tracer = Tracer("run-1", clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.work(2), keep_span=False)

    def mid_body():
        clock.work(1)
        leaf()
        clock.work(3)

    mid = tracer.wrap("mid", mid_body, keep_span=True)

    def root_body():
        clock.work(10)
        mid()
        leaf()
        mid()

    tracer.wrap("root", root_body, keep_span=True)()

    # root lasts 10 + 6 + 2 + 6 = 24; its direct children cover 6 + 2 + 6.
    assert tracer.stats == {"leaf": [3, 6.0], "mid": [2, 8.0], "root": [1, 10.0]}
    assert [tuple(s) for s in tracer.spans] == [
        ("root", 0.0, 24.0, None, "run-1"),
        ("mid", 10.0, 16.0, 0, "run-1"),
        ("mid", 18.0, 24.0, 0, "run-1"),
    ]
    assert tracer.stack == []


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer("run-1", clock=clock)

    def failing():
        clock.work(4)
        raise ValueError("boom")

    inner = tracer.wrap("inner", failing, keep_span=False)

    def outer_body():
        clock.work(1)
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("outer", outer_body, keep_span=True)()
    assert tracer.stats == {"inner": [1, 4.0], "outer": [1, 1.0]}
    assert tracer.stack == []


def test_covered_share_counts_outermost_spans_inside_the_phase():
    clock = FakeClock()
    tracer = Tracer("run-1", clock=clock)

    def nested_body():
        clock.work(1)

    nested = tracer.wrap("b_row", nested_body, keep_span=True)

    def b_row_body():
        clock.work(2)
        nested()  # a b_row inside a b_row is not counted twice

    b_row = tracer.wrap("b_row", b_row_body, keep_span=True)

    def classes():
        clock.work(4)
        b_row()
        b_row()

    tracer.run("phase.classes", classes)
    b_row()  # outside the phase: not counted
    assert tracer.covered_share("b_row", "phase.classes") == pytest.approx(6 / 10)
    assert tracer.covered_share("b_row", "phase.missing") == 0.0


def test_install_counts_real_calls_and_restores_every_entry_point():
    from demazure import build_root_datum, cli, dual, formal, rootdata, twisted
    from demazure.formal import ADDITIVE, Backend

    originals = {
        "divide": formal._divide_selem,
        "smul": formal.SElem.__dict__["__mul__"],
        "qrmul": formal.QElem.__dict__["__rmul__"],
        "q_equal": formal.q_equal,
        "cli_q_equal": cli.q_equal,
        "twisted_q_equal": twisted.q_equal,
        "bruhat": rootdata.RootDatum.__dict__["bruhat_leq"],
        "dual_elem": dual.DualBasis.__dict__["dual_basis_element"],
    }
    tracer = Tracer("run-1")
    with tracer.installed():
        assert cli.q_equal is not originals["cli_q_equal"]
        assert formal.QElem.__dict__["__rmul__"] is formal.QElem.__dict__["__mul__"]
        datum = rootdata.build_root_datum("A2")
        basis = dual.DualBasis(twisted.Algebra(twisted.BUILTIN_FAMILIES["x"](Backend(datum, ADDITIVE))))
        for u in basis.order:
            basis.dual_basis_element(u)
    assert formal._divide_selem is originals["divide"]
    assert formal.SElem.__dict__["__mul__"] is originals["smul"]
    assert formal.QElem.__dict__["__rmul__"] is originals["qrmul"]
    assert formal.q_equal is originals["q_equal"]
    assert cli.q_equal is originals["cli_q_equal"]
    assert twisted.q_equal is originals["twisted_q_equal"]
    assert rootdata.RootDatum.__dict__["bruhat_leq"] is originals["bruhat"]
    assert dual.DualBasis.__dict__["dual_basis_element"] is originals["dual_elem"]
    assert build_root_datum is rootdata.build_root_datum

    layers = tracer.layer_metrics()
    assert layers["rootdata.build_root_datum.calls"] == 1
    assert layers["dual.dual_basis_element.calls"] == 6
    assert 0 < layers["formal.divide.failed"] <= layers["formal.divide.tried"]
    assert layers["formal.divide.useful_ratio"] == pytest.approx(
        1 - layers["formal.divide.failed"] / layers["formal.divide.tried"]
    )
    assert 0 < layers["twisted.compose_word.hit_ratio"] < 1
    assert layers["twisted.b_row.classes_share"] == 0.0  # no classes phase here
    assert all(value >= 0 for value in layers.values())
