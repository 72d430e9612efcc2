"""Estimator-style front end over the whole pipeline.

Follows the familiar fit/params idiom: construct with hyperparameters,
call fit(graph) to run the computation, read the results off fitted
attributes (trailing underscore). All heavy lifting lives in the
functional modules; this class wires validation, the game, and the
exact-or-truncated run together.
"""

from __future__ import annotations

import math

from .convert import efficiency_check
from .errors import ParseError
from .export import build_si_graph, to_dot
from .game import GraphGame
from .graph import ensure_graph, khop_neighborhoods
from .interactions import INDEX_KINDS
from .moebius import DEFAULT_CEILING, check_budget, graphshapiq_approx, graphshapiq_exact
from .nn import ensure_baseline, ensure_model


def check_positive_int(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParseError(f"{name} must be an integer >= 1, got {value!r}")
    return value


class GraphInteractionExplainer:
    """Computes interaction attributions for one GNN graph prediction.

    Parameters:
        model: GnnModel, weight-file dict, or path to a weight file
        index: "sv", "sii", "ksii", "stii", or "mi"
        order: explanation order k (defaults: 1 for sv, n for mi, else 2)
        ell: receptive-field range; defaults to the model's layer count
        lam: truncation order; None runs the exact computation
        baseline: "mean", a vector, or a path to a JSON array
        normalize: subtract nu(empty) from every game value
        ceiling: evaluation budget in distinct coalitions, the unit of
            call_count_: a run that would evaluate more sets than this
            raises BudgetExceeded before any evaluation, unless lam is 1
            (moebius.check_budget)

    Fitted attributes: interactions_, moebius_, call_count_ (the run's cost,
    the sets of its Moebius map: |I| in exact mode), interaction_set_size_
    (exact mode), game_, hoods_, efficiency_residual_.
    """

    def __init__(self, model, *, index: str = "ksii", order: int | None = None,
                 ell: int | None = None, lam: int | None = None,
                 baseline="mean", normalize: bool = False,
                 ceiling: int = DEFAULT_CEILING):
        self.model = model
        self.index = index
        self.order = order
        self.ell = ell
        self.lam = lam
        self.baseline = baseline
        self.normalize = normalize
        self.ceiling = ceiling

    _param_names = ("model", "index", "order", "ell", "lam", "baseline",
                    "normalize", "ceiling")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "GraphInteractionExplainer":
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def _resolve_order(self, n: int) -> int:
        if self.order is not None:
            order = check_positive_int(self.order, "order")
            if order > n:
                raise ParseError(f"order {order} exceeds the {n} nodes")
            if self.index == "sv" and order != 1:
                raise ParseError("the Shapley value is an order-1 index; use order=1")
            return order
        if self.index == "sv":
            return 1
        if self.index == "mi":
            return n
        return min(2, n)

    def fit(self, graph) -> "GraphInteractionExplainer":
        """Run the pipeline on one graph; returns self with results attached."""
        if self.index not in INDEX_KINDS:
            raise ParseError(f"unknown index {self.index!r}")
        g = ensure_graph(graph)
        model = ensure_model(self.model)
        baseline = ensure_baseline(self.baseline, g)
        ell = self.ell if self.ell is not None else model.num_layers
        check_positive_int(ell, "ell")
        game = GraphGame(model, g, baseline=baseline, normalize=self.normalize)
        hoods = khop_neighborhoods(g, ell)
        k = self._resolve_order(g.n)
        if self.lam is None:
            mi, si = graphshapiq_exact(game, hoods, k, index=self.index, ceiling=self.ceiling)
            self.interaction_set_size_ = mi.call_count
        else:
            lam = check_positive_int(self.lam, "lambda")
            if lam > g.n:
                raise ParseError(f"lambda {lam} exceeds the {g.n} nodes")
            check_budget(hoods, lam, self.ceiling)
            mi, si = graphshapiq_approx(game, hoods, lam, k, index=self.index)
            self.interaction_set_size_ = None
        # the residual sums every exported value, so it is finite when they are
        residual = efficiency_check(si, game.nu_full, game.nu_empty)
        if not all(map(math.isfinite, (game.nu_full, game.nu_empty, residual))):
            raise ParseError(f"the model overflows float64 on this graph: nu(N) = {game.nu_full}, "
                             f"nu(empty) = {game.nu_empty}, efficiency residual = {residual}")
        self.graph_ = g
        self.game_ = game
        self.hoods_ = hoods
        self.moebius_ = mi
        self.interactions_ = si
        self.call_count_ = mi.call_count
        self.efficiency_residual_ = residual
        return self

    def _require_fitted(self) -> None:
        if not hasattr(self, "interactions_"):
            raise RuntimeError("call fit(graph) first")

    def to_export(self) -> dict:
        """SI-Graph document for the fitted instance."""
        self._require_fitted()
        return build_si_graph(self.interactions_, self.game_.nu_full,
                              self.game_.nu_empty, self.efficiency_residual_)

    def to_dot(self) -> str:
        self._require_fitted()
        return to_dot(self.to_export(), self.graph_)
