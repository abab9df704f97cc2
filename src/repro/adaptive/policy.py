"""The ``adaptive`` placement backend: ILP + controller + forecaster.

:class:`AdaptivePolicy` wraps the paper's analytical model and closes
the loop around it:

* each window the inner :class:`~repro.core.placement.analytical.
  AnalyticalModel` solves the placement ILP at the controller's
  *current* alpha;
* the :class:`~repro.adaptive.forecast.HotnessForecaster` adds
  speculative promotions for regions predicted to turn hot next window
  (ahead of the fault burst), and the controller's demotion-percentile
  knob pushes the predicted-cold tail one tier colder than the ILP
  chose (the harvest side of the same dial);
* after the window runs, :meth:`AdaptivePolicy.observe_window` feeds
  the measured signals -- the window's p99 slowdown from the latency
  histogram and the modeled $/GB-hour savings rate -- into the
  :class:`~repro.adaptive.controller.AdaptiveController`, which may
  step the knobs for the *next* window.  Every step emits an
  ``alpha_step`` span and the ``repro_adaptive_*`` metrics.

The policy is registry-native (``policy = "adaptive"`` in any
:class:`~repro.engine.spec.ScenarioSpec`) and flows through run, fleet,
serve, chaos (it wraps cleanly in a
:class:`~repro.chaos.policies.ResilientModel`) and the arena.  All of
its mutable state -- controller, forecaster, RNG -- pickles through
PR-5 checkpoints, so a drained-and-resumed serve continues the alpha
trajectory bit-identically.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.adaptive.controller import AdaptiveConfig, AdaptiveController
from repro.adaptive.forecast import HotnessForecaster
from repro.core.dollars import DEFAULT_DRAM_PRICE
from repro.core.knob import Knob
from repro.core.placement.analytical import AnalyticalModel
from repro.core.placement.base import PlacementModel
from repro.core.seeding import child_seed

#: ``child_seed`` key deriving the controller seed from a scenario seed
#: (decorrelates the harvest jitter from the workload/daemon streams).
ADAPTIVE_SEED_KEY = 0xADA7

#: Hours in the dollar model's month (matches repro.core.dollars).
_HOURS_PER_MONTH = 730.0

#: Metric names (the CI adaptive-smoke job asserts on the first).
STEPS_METRIC = "repro_adaptive_steps_total"
ALPHA_METRIC = "repro_adaptive_alpha"
DEMOTION_METRIC = "repro_adaptive_demotion_percentile"
SPECULATIVE_METRIC = "repro_adaptive_speculative_promotions_total"


class AdaptivePolicy(PlacementModel):
    """Self-tuning analytical placement (see module docstring).

    Args:
        config: Controller/forecaster knobs; ``None`` uses defaults.
        solver_backend: ILP backend for the inner analytical model.
        seed: Controller seed (harvest jitter); reseeded from the
            scenario by :meth:`configure_from_spec`.
        name: Display name.
    """

    def __init__(
        self,
        config: AdaptiveConfig | None = None,
        solver_backend: str = "auto",
        seed: int = 0,
        name: str = "Adaptive",
    ) -> None:
        self.name = name
        self.solver_backend = solver_backend
        self.model = AnalyticalModel(
            Knob.clamped((config or AdaptiveConfig()).start_alpha),
            backend=solver_backend,
            name=name,
        )
        self._obs = None
        self._m_steps = None
        self._m_alpha = None
        self._m_demotion = None
        self._m_speculative = None
        self.speculative_promotions = 0
        self.extra_demotions = 0
        self.reset(config or AdaptiveConfig(), seed=seed)

    # -- configuration -------------------------------------------------------

    def reset(self, config: AdaptiveConfig, seed: int = 0) -> None:
        """Install a fresh controller/forecaster (pre-run only)."""
        self.config = config
        self.controller = AdaptiveController(config, seed=seed)
        self.forecaster: HotnessForecaster | None = None
        self.model.knob = Knob.clamped(self.controller.alpha)
        self.speculative_promotions = 0
        self.extra_demotions = 0

    def configure_from_spec(self, spec) -> None:
        """Adopt a scenario's ``adaptive`` block and derived seed.

        Called by :class:`~repro.engine.session.Session` right after it
        builds the policy from the registry (never on checkpoint
        restores, which pass the policy as a prebuilt override).  The
        scenario's ``alpha`` (when set) overrides ``start_alpha``, so
        ``--alphas`` sweeps seed the adaptive start point too.
        """
        config = self.config
        adaptive = getattr(spec, "adaptive", None)
        if adaptive:
            config = AdaptiveConfig.from_dict(adaptive)
        if spec.alpha is not None:
            config = replace(config, start_alpha=float(spec.alpha))
        self.reset(config, seed=child_seed(spec.seed, ADAPTIVE_SEED_KEY))

    # -- plumbing the daemon expects ----------------------------------------

    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        # Fan out to the inner model (solver latency accounting) and
        # drop any metric handles minted from the previous registry.
        self._obs = value
        self.model.obs = value
        self._m_steps = None
        self._m_alpha = None
        self._m_demotion = None
        self._m_speculative = None

    @property
    def solver_ns(self) -> float:
        return self.model.solver_ns

    @solver_ns.setter
    def solver_ns(self, value: float) -> None:
        self.model.solver_ns = value

    @property
    def knob(self) -> Knob:
        return self.model.knob

    @property
    def alpha(self) -> float:
        """The live alpha (what serve's ``/status`` reports)."""
        return self.controller.alpha

    def _metrics(self):
        if self._m_steps is None:
            registry = getattr(self._obs, "registry", None)
            if registry is None:
                from repro.obs import NULL_OBS

                registry = NULL_OBS.registry
            self._m_steps = registry.counter(
                STEPS_METRIC, "Adaptive-controller knob steps taken"
            )
            self._m_alpha = registry.gauge(
                ALPHA_METRIC, "Live alpha chosen by the adaptive controller"
            )
            self._m_demotion = registry.gauge(
                DEMOTION_METRIC,
                "Live waterfall demotion percentile chosen by the controller",
            )
            self._m_speculative = registry.counter(
                SPECULATIVE_METRIC,
                "Regions promoted ahead of their predicted fault burst",
            )
        return (
            self._m_steps,
            self._m_alpha,
            self._m_demotion,
            self._m_speculative,
        )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Obs handles never travel: checkpoints re-attach a registry.
        state["_obs"] = None
        state["_m_steps"] = None
        state["_m_alpha"] = None
        state["_m_demotion"] = None
        state["_m_speculative"] = None
        return state

    # -- the per-window pair: recommend, then observe ------------------------

    def recommend(self, record, system) -> dict[int, int]:
        config = self.config
        self.model.knob = Knob.clamped(self.controller.alpha)
        moves = self.model.recommend(record, system)
        if not config.forecast:
            return moves
        if self.forecaster is None:
            self.forecaster = HotnessForecaster(
                len(record.hotness),
                num_states=config.forecast_states,
                ewma=config.forecast_ewma,
            )
        # The daemon has already copied record.hotness into the SoA
        # column; read it back so the forecast consumes the same array
        # every other column consumer does.
        hotness = system.space.page_table.region_hotness
        predicted = self.forecaster.observe(hotness)

        last_tier = len(system.tiers) - 1
        _, _, _, m_speculative = self._metrics()

        # Speculative promotions: not-yet-hot regions modeled likely to
        # enter the hot band next window go to DRAM *now*.  Capped, and
        # ordered by predicted hotness (ties by region id) so the cap
        # keeps the strongest candidates deterministically.
        candidates = self.forecaster.promotion_candidates(
            config.promote_threshold
        )
        promoted: set[int] = set()
        if candidates.any() and config.max_speculative:
            ids = np.nonzero(candidates)[0]
            order = np.lexsort((ids, -predicted[ids]))
            for rid in ids[order][: config.max_speculative]:
                rid = int(rid)
                if moves.get(rid, 0) != 0:
                    moves[rid] = 0
                    promoted.add(rid)
            if promoted:
                self.speculative_promotions += len(promoted)
                m_speculative.inc(len(promoted))

        # Harvest-side demotion: only regions both measured-cold *now*
        # and predicted to stay cold ride the waterfall one tier colder
        # than the ILP chose -- anything warmer gets yanked straight
        # back by the next solve, which is pure migration churn.  The
        # percentile is the controller's second knob: it bounds what
        # fraction of the region space may sink per window, widening
        # under SLA headroom and narrowing after violations.
        cold = (predicted <= 0.0) & (hotness <= 0.0)
        budget = int(
            len(predicted) * self.controller.demotion_percentile / 100.0
        )
        demoted = 0
        for rid in np.nonzero(cold)[0]:
            if demoted >= budget:
                break
            rid = int(rid)
            if rid in promoted:
                continue
            tier = moves.get(rid)
            if tier is not None and 0 < tier < last_tier:
                moves[rid] = tier + 1
                demoted += 1
        self.extra_demotions += demoted
        return moves

    def observe_window(self, record, system) -> None:
        """Feed one completed window's signals into the controller.

        Called by the session loop after every
        :meth:`~repro.engine.session.Session.run_window`.
        """
        read_ns = system.dram.media.read_ns
        p99 = record.p99_latency_ns
        p99_slowdown = max(0.0, p99 / read_ns - 1.0) if read_ns else 0.0
        mean_slowdown = max(0.0, record.slowdown(read_ns))
        savings_rate = (
            max(0.0, record.tco_savings)
            * DEFAULT_DRAM_PRICE
            / _HOURS_PER_MONTH
        )
        stepped = self.controller.observe(
            p99_slowdown, mean_slowdown, savings_rate
        )
        m_steps, m_alpha, m_demotion, _ = self._metrics()
        m_alpha.set(self.controller.alpha)
        m_demotion.set(self.controller.demotion_percentile)
        if stepped:
            m_steps.inc()
            entry = self.controller.trace[-1]
            tracer = getattr(self._obs, "tracer", None)
            if tracer is not None:
                with tracer.span(
                    "alpha_step",
                    window=record.window,
                    action=entry["action"],
                    alpha=entry["alpha"],
                    demotion_percentile=entry["demotion_percentile"],
                ):
                    pass
        self.model.knob = Knob.clamped(self.controller.alpha)

    # -- introspection -------------------------------------------------------

    def decision_trace(self) -> list[dict]:
        """The controller's JSON-safe decision trace (oldest first)."""
        return self.controller.decision_trace()
