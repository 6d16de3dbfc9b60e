"""The pattern sets the workloads run."""

from __future__ import annotations

import importlib.util
import os

from opencep_ray import (Col, GreaterThanEqCondition, Kleene, Neg, Pattern,
                         Primitive, Seq)
from opencep_ray.conditions import AndCondition

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def flagship_patterns() -> list:
    """The three flagship patterns of ``scripts/run_stream_job.py``.  The
    module is loaded without registering it in ``sys.modules``, so Ray
    pickles its condition lambdas by value."""
    path = os.path.join(ROOT, "scripts", "run_stream_job.py")
    spec = importlib.util.spec_from_file_location("_flagship_job", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.flagship_patterns()


def live_patterns(time_scale: float) -> list:
    """The flagship patterns on the live workload's compressed timeline:
    windows shrink by ``time_scale``, the source seconds per due second, so
    a window spans as many turns of a conversation as in the source."""
    return [Pattern(p.structure, p.condition,
                    window=p.window_us / 1e6 / time_scale,
                    pattern_id=p.pattern_id)
            for p in flagship_patterns()]


def _at_least(name: str, n: int):
    return GreaterThanEqCondition(Col(name, "v"), n)


def batch_patterns() -> list:
    """Flagship shapes whose leaf conditions are declarative ``Col``-vs-
    constant, so ``_Prep`` drops user and tool turns below the threshold
    before the exchange.  The Kleene leaf has no condition, so assistant
    turns all pass."""
    return [
        Pattern(Seq(Primitive("user", "a"), Primitive("assistant", "b")),
                AndCondition(_at_least("a", 30), _at_least("b", 30)),
                window=120, pattern_id=1),
        Pattern(Seq(Primitive("user", "a"),
                    Kleene(Primitive("assistant", "b"), max_size=3),
                    Primitive("tool", "c")),
                AndCondition(_at_least("a", 30), _at_least("c", 30)),
                window=180, pattern_id=2),
        Pattern(Seq(Primitive("user", "a"), Neg(Primitive("tool", "x")),
                    Primitive("assistant", "b")),
                AndCondition(_at_least("a", 30), _at_least("x", 30),
                             _at_least("b", 30)),
                window=150, pattern_id=3),
    ]
