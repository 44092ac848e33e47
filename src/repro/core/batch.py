"""Composite answers and batch why-not answering.

Two conveniences the paper motivates but leaves to the reader:

* :func:`answer_why_not` — one call returning the explanation and all
  three modification strategies with a recommendation, the shape a
  downstream application actually wants;
* :func:`answer_why_not_batch` — many why-not questions against the same
  query.  Section VI notes that the safe region "does not need to be
  recomputed to answer another why-not question for the same query
  point"; the batch path exploits exactly that reuse (the engine caches
  ``SR(q)`` per query).

:func:`answer_batch` is the batched answer path behind the
``batch-prefilter`` operator, the batched filter–refinement of "Inverse
Queries for Multidimensional Spaces": two kernel passes resolve every
``Λ`` of the batch, one segmented staircase builds every MWP, MQP and
MWQ-corner candidate set, and one kernel pass verifies every candidate
of every question.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core._staircase import staircase_job, staircase_stages
from repro.core._verify import Pending, combine, verify_pending
from repro.core.answer import (
    Candidate,
    Explanation,
    ModificationResult,
    MWQCase,
    MWQResult,
)
from repro.core.explain import explanation_of
from repro.core.mwq import disjoint_stage, mwq_case
from repro.kernels.membership import batch_lambda_sets
from repro.prefs.model import support_dims

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import WhyNotEngine
    from repro.core.safe_region import SafeRegion
    from repro.prefs.model import PreferenceModel

__all__ = [
    "WhyNotAnswer",
    "answer_batch",
    "answer_why_not",
    "answer_why_not_batch",
]


@dataclass
class WhyNotAnswer:
    """Everything the system knows about one why-not question."""

    why_not: "int | np.ndarray"
    query: np.ndarray
    explanation: Explanation
    mwp: ModificationResult
    mqp: ModificationResult
    mwq: MWQResult

    @property
    def already_member(self) -> bool:
        return self.explanation.is_member

    def recommendation(self) -> str:
        """A one-line verdict in the paper's terms."""
        if self.already_member:
            return "already a reverse-skyline member; nothing to do"
        if self.mwq.case is MWQCase.OVERLAP:
            best = self.mwq.best_query_candidate()
            coords = ", ".join(f"{v:g}" for v in best.point)
            return (
                f"move the query to ({coords}) — zero cost, keeps every "
                "existing reverse-skyline point (case C1)"
            )
        pair = self.mwq.best_pair()
        if pair is None:
            best = self.mwp.best()
            if best is None:
                return (
                    "no feasible modification found: neither a combined "
                    "move nor a why-not relocation admits the point"
                )
            coords = ", ".join(f"{v:g}" for v in best.point)
            return f"move the why-not point to ({coords}) (MWP fallback)"
        q_cand, c_cand = pair
        q_coords = ", ".join(f"{v:g}" for v in q_cand.point)
        c_coords = ", ".join(f"{v:g}" for v in c_cand.point)
        return (
            f"move the query to ({q_coords}) inside its safe region and "
            f"the why-not point to ({c_coords}) at cost {c_cand.cost:.6f} "
            "(case C2)"
        )

    def best_cost(self) -> float:
        """The Eqn.-11 cost of the recommended answer."""
        if self.already_member:
            return 0.0
        return self.mwq.cost


def answer_why_not(
    engine: WhyNotEngine,
    why_not: "int | Sequence[float]",
    query: Sequence[float],
    approximate: bool = False,
    k: int = 10,
    weights: "Sequence[float] | None" = None,
) -> WhyNotAnswer:
    """Run the full pipeline for one why-not question."""
    q = np.asarray(query, dtype=np.float64)
    with engine.obs.span("pipeline.answer_why_not"):
        return WhyNotAnswer(
            why_not=why_not,
            query=q,
            explanation=engine.explain(why_not, q, weights=weights),
            mwp=engine.modify_why_not_point(why_not, q, weights=weights),
            mqp=engine.modify_query_point(why_not, q, weights=weights),
            mwq=engine.modify_both(
                why_not, q, approximate=approximate, k=k, weights=weights
            ),
        )


def _member_answer(
    why_not: "int | Sequence[float]", point: np.ndarray, q: np.ndarray, dim: int
) -> WhyNotAnswer:
    """The answer for a customer (at ``point``) already in ``RSL(q)``,
    built without running the candidate stages.

    Replicates exactly what the full pipeline returns on an empty ``Λ``:
    a member explanation, no-op MWP/MQP results whose single candidate is
    the unmoved point at zero cost, and the ``ALREADY_MEMBER`` MWQ case.
    """
    empty = np.empty(0, dtype=np.int64)
    return WhyNotAnswer(
        why_not=why_not,
        query=q,
        explanation=Explanation(
            why_not=point,
            query=q,
            culprit_positions=empty,
            culprits=np.empty((0, dim)),
        ),
        mwp=ModificationResult(
            method="MWP",
            why_not=point,
            query=q,
            candidates=[Candidate(point, cost=0.0, verified=True)],
            lambda_positions=empty,
            frontier_positions=empty,
        ),
        mqp=ModificationResult(
            method="MQP",
            why_not=point,
            query=q,
            candidates=[Candidate(q, cost=0.0, verified=True)],
            lambda_positions=empty,
            frontier_positions=empty,
        ),
        mwq=MWQResult(
            case=MWQCase.ALREADY_MEMBER,
            why_not=point,
            query=q,
            query_candidates=[Candidate(q, cost=0.0, verified=True)],
        ),
    )


def answer_batch(
    engine: WhyNotEngine,
    why_nots: Sequence["int | Sequence[float]"],
    q: np.ndarray,
    members: np.ndarray,
    region: SafeRegion,
    prefs: PreferenceModel,
) -> list[WhyNotAnswer]:
    """Answer every question of a batch, byte-identical to running
    :func:`answer_why_not` on each.

    ``members`` flags the questions already in ``RSL(q)`` (they get the
    member answer), ``region`` is the batch's shared ``SR(q)`` and
    ``prefs`` the request's preference model.  One
    :func:`~repro.kernels.membership.batch_lambda_sets` pass yields
    ``Λ(c_t, q)`` of every other question, handed to its explanation and
    its MWP and MQP stages; a second yields ``Λ(c_t, corner)`` of every
    MWQ case-C2 corner once the cases are known.  Every candidate set
    comes from one segmented staircase, and all candidates (MWP points,
    MQP refined queries, MWQ overlap points and the MWP points of every
    corner) are verified together in one
    :func:`~repro.kernels.membership.batch_verify_membership` pass.
    """
    index, config, dim = engine.index, engine.config, engine.dim
    pw = prefs.weight_array(dim)
    dims = support_dims(pw, dim)
    beta = prefs.cost_weights(engine.beta)
    alpha = prefs.cost_weights(engine.alpha)
    bounds = engine._geometry_bounds(q)

    def lambda_sets(rows: list, queries: np.ndarray) -> list:
        """``Λ(c_t, query)`` of every ``(i, c_t, exclude)`` row."""
        if not rows:
            return []
        offsets, positions = batch_lambda_sets(
            index.points,
            np.array([c_t for _, c_t, _ in rows]),
            queries,
            config.policy,
            np.array([ex[0] if ex else -1 for _, _, ex in rows], dtype=np.int64),
            dims,
            engine._kernel_counters,
        )
        return np.split(positions, offsets[1:-1])

    answers: list = [None] * len(why_nots)
    asks = []
    for i, why_not in enumerate(why_nots):
        c_t, exclude = engine._resolve_customer(why_not)
        if members[i]:
            answers[i] = _member_answer(why_not, c_t, q, dim)
        else:
            asks.append((i, c_t, exclude))
    questions, jobs, corner_rows, corners = [], [], [], []
    for (i, c_t, exclude), lam in zip(asks, lambda_sets(asks, q)):
        if lam.size == 0:
            answers[i] = _member_answer(why_nots[i], c_t, q, dim)
            continue
        ddr = engine._cached_ddr(why_nots[i], prefs, bounds)
        case = mwq_case(index, c_t, q, region, bounds, config, exclude, ddr, pw)
        if not isinstance(case, Pending):
            corner_rows += [(i, c_t, exclude)] * case.shape[0]
            corners.append(case)
        jobs += [
            staircase_job(index, "MWP", c_t, q, config, beta, exclude, pw, lam),
            staircase_job(index, "MQP", c_t, q, config, alpha, exclude, pw, lam),
        ]
        questions.append((i, c_t, lam, case))
    if corners:
        corners = np.concatenate(corners)
        for (i, c_t, exclude), corner, lam in zip(
            corner_rows, corners, lambda_sets(corner_rows, corners)
        ):
            jobs.append(staircase_job(
                index, "MWP", c_t, corner, config, beta, exclude, pw, lam
            ))
    pendings = staircase_stages(jobs, config.sort_dim, dims, engine.normalizer)
    heads = iter(pendings[: 2 * len(questions)])
    tails = iter(pendings[2 * len(questions) :])
    stages = []
    for i, c_t, lam, case in questions:
        mwp, mqp = next(heads), next(heads)
        if not isinstance(case, Pending):
            case = disjoint_stage(c_t, q, case, [next(tails) for _ in case])
        explanation = explanation_of(index, c_t, q, lam)
        stages.append(
            combine(
                [mwp, mqp, case],
                lambda results, why_not=why_nots[i], explanation=explanation: (
                    WhyNotAnswer(why_not, q, explanation, *results)
                ),
            )
        )
    finished = verify_pending(
        index, stages, config.policy, config.verify, pw,
        counters=engine._kernel_counters,
    )
    for (i, *_), answer in zip(questions, finished):
        answers[i] = answer
    return answers


def answer_why_not_batch(
    engine: WhyNotEngine,
    why_nots: Sequence["int | Sequence[float]"],
    query: Sequence[float],
    approximate: bool = False,
    k: int = 10,
    weights: "Sequence[float] | None" = None,
) -> list[WhyNotAnswer]:
    """Answer several why-not questions for the same query.

    The first answer pays for the safe-region construction; the engine's
    per-query cache makes every subsequent answer reuse it, exactly the
    amortisation Section VI describes.  The planner chooses between the
    kernel-prefiltered strategy (membership of *all* questions resolved
    in one blocked pass up front, so customers already in ``RSL(q)``
    skip their four per-question window queries entirely) and the
    sequential per-question pipeline; answers are identical either way.
    """
    q = np.asarray(query, dtype=np.float64)
    why_nots = list(why_nots)
    with engine.obs.span(
        "pipeline.answer_why_not_batch",
        questions=len(why_nots),
        dataset_epoch=engine.dataset_epoch,
    ):
        return engine._execute(
            *engine._request(
                "batch",
                why_nots,
                q,
                approximate=approximate,
                k=k,
                weights=weights,
            )
        )
