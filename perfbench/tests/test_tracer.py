"""The tracer's span bookkeeping, self time and patching, on toy code."""

import types

from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_calls():
    clock = FakeClock()
    t = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def inner():
        clock.now += 3.0
        leaf_op()
        leaf_op()

    def outer():
        clock.now += 2.0
        inner_span()
        clock.now += 4.0

    leaf_op = t.op("leaf", leaf)
    inner_span = t.span("inner", inner)
    t.span("outer", outer)()

    totals = t.totals()
    assert totals["outer"] == [1, 6.0]          # 11 s in all, 5 s of it in inner
    assert totals["inner"] == [1, 3.0]          # 5 s in all, 2 s of it in leaf
    assert totals["leaf"] == [2, 2.0]
    inner_rec, outer_rec = t.spans
    assert (outer_rec.start, outer_rec.end) == (0.0, 11.0)
    assert inner_rec.ops == {"leaf": [2, 2.0]}  # ops are counted per enclosing span
    assert outer_rec.parent is None and outer_rec.root == outer_rec.id
    assert inner_rec.parent == outer_rec.id and inner_rec.root == outer_rec.id


def test_self_time_survives_exceptions():
    clock = FakeClock()
    t = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError

    boom_op = t.op("boom", boom)

    def outer():
        try:
            boom_op()
        except ValueError:
            pass
        clock.now += 2.0

    t.span("outer", outer)()
    assert t.totals() == {"outer": [1, 2.0], "boom": [1, 1.0]}


def test_patch_function_replaces_every_binding_and_restores():
    def f(x):
        return x + 1

    home = types.ModuleType("home")
    user = types.ModuleType("user")
    home.f = f
    user.f_alias = f                            # imported by name elsewhere
    t = Tracer()
    t.patch_function(f, t.op("f", f), [home, user])
    assert home.f(1) == 2 and user.f_alias(1) == 2
    assert t.totals()["f"][0] == 2
    t.restore()
    assert home.f is f and user.f_alias is f


def test_patch_method_handles_inherited_and_classmethods():
    class Base:
        def add(self, other):
            return "added"

        @classmethod
        def make(cls):
            return cls()

    class Child(Base):
        pass

    t = Tracer()
    t.patch_method(Child, ("add",), lambda fn: t.op("add", fn))
    t.patch_method(Child, ("make",), lambda fn: t.op("make", fn))
    assert isinstance(Child.make(), Child)
    assert Child().add(1) == "added" and Base().add(1) == "added"
    assert {name: calls for name, (calls, _) in t.totals().items()} == {"add": 1, "make": 1}
    t.restore()
    assert "add" not in vars(Child) and "make" not in vars(Child)
