"""Baseline virtual synchrony algorithms for comparison (Section 1, 9).

The paper's headline claim is a virtual synchrony algorithm that runs in
one message round *in parallel* with the membership round, without
pre-agreement on a globally unique identifier.  These baselines are the
paper's own end-point restricted to the timings of prior approaches:
:class:`~repro.core.gcs_endpoint.GcsEndpoint` children in the
inheritance construct of [26] that only add precondition conjuncts (and,
for the two-round design, the identifier round's message):

* :class:`SequentialVsEndpoint` - ``block`` and the sync round wait for
  the membership view answering the current ``start_change``:
  membership + 1 round.
* :class:`TwoRoundVsEndpoint` - the sync round also waits for the
  identifier a coordinator proposes for that view (the [7, 22] shape
  the paper cites): membership + 2 rounds.

A child only restricts its parent's transitions, so both satisfy the
paper's safety properties by the paper's own proofs (the tests run them
under the same invariant and refinement checkers), which makes the
latency and message-count comparisons in the benchmarks apples-to-apples.
"""

from repro.baselines.base import SequentialVsEndpoint
from repro.baselines.two_round import ProposeIdMsg, TwoRoundVsEndpoint

__all__ = [
    "ProposeIdMsg",
    "SequentialVsEndpoint",
    "TwoRoundVsEndpoint",
]
