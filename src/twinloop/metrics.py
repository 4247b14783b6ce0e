"""Run-log metrics: decision accuracy counters and band-keeping control
performance, plus report rendering in table, csv and machine formats.

Control figures use a zero-order hold: each episode's sampled temperature is
taken to govern the plant until the next episode's sample.  Under the
continuous monitor every reading starts an episode, so that is exactly how
the held heater action and the stale sensor reading behave between
decisions.  Under the anomaly monitor the in-band idle polls between
episodes are not logged, so every held sample is out of band and
``time_outside_s`` reads the whole run: a 2400 s flip-policy run with a
fixed 5.674 s latency reports 2400.0 s on every seed, where a hold over
every reading gives 1072.4 s on seed 1.

A log that holds only its header, which a run aborted before its first
episode leaves, reports zero samples: every count, percentage and time is
0, and the midpoint is the band's.
"""

from __future__ import annotations

from dataclasses import fields

from .agents import Thresholds
from .errors import InvalidInput, frozen
from .jsonio import dumps_record
from .orchestrator import EpisodeRecord
from .plantio import round_half_away

TABLE = "table"
CSV = "csv"
MACHINE = "machine"

# One row per metric, in field order of AccuracyMetrics then ControlMetrics:
# the table label and the csv column.
_ROWS = (
    ("Samples", "samples"),
    ("Passes", "passes"),
    ("Fails", "fails"),
    ("Pass after reprompts", "pass_after_reprompts"),
    ("Overrides", "overrides"),
    ("Accuracy- first pass (%)", "accuracy_first_pass_pct"),
    ("Accuracy - reprompts (%)", "accuracy_with_reprompts_pct"),
    ("Average deviation (degC)", "avg_deviation_c"),
    ("Time above band (s)", "time_above_s"),
    ("Time below band (s)", "time_below_s"),
    ("Time outside range (s)", "time_outside_s"),
    ("Band midpoint (degC)", "midpoint_c"),
)
CSV_COLUMNS = tuple(column for _, column in _ROWS)


@frozen
class AccuracyMetrics:
    """Decision accuracy counters; percentages are pre-rounded to 2 decimals
    (ties away from zero)."""

    samples: int
    passes: int
    fails: int
    pass_after_reprompts: int
    overrides: int
    accuracy_first_pass: float
    accuracy_with_reprompts: float


@frozen
class ControlMetrics:
    """Band-keeping figures: seconds spent outside the band and the
    time-weighted mean deviation from its midpoint."""

    avg_deviation: float
    time_above: float
    time_below: float
    time_outside: float
    midpoint: float


@frozen
class RunMetrics:
    """A run's report: its accuracy counters and its control figures."""

    accuracy: AccuracyMetrics
    control: ControlMetrics


def accuracy_metrics(episodes: list[EpisodeRecord]) -> AccuracyMetrics:
    """Accuracy counters over a run log.

    A pass is an episode whose first attempt validated; a reprompt rescue is
    a pass at any later attempt; everything else ended in an override.
    """
    samples = len(episodes)
    passes = 0
    pass_after_reprompts = 0
    overrides = 0
    for episode in episodes:
        if not episode.attempts:
            raise InvalidInput(f"episode {episode.index} has no attempts")
        if episode.attempts[0].passed:
            passes += 1
        elif any(a.passed for a in episode.attempts[1:]):
            pass_after_reprompts += 1
        else:
            overrides += 1
    fails = samples - passes
    return AccuracyMetrics(
        samples=samples,
        passes=passes,
        fails=fails,
        pass_after_reprompts=pass_after_reprompts,
        overrides=overrides,
        # a log with no episode reports 0.00 %
        accuracy_first_pass=round_half_away(100.0 * passes / max(samples, 1)),
        accuracy_with_reprompts=round_half_away(100.0 * (passes + pass_after_reprompts) / max(samples, 1)),
    )


def control_metrics(
    episodes: list[EpisodeRecord], thresholds: Thresholds, run_duration: float
) -> ControlMetrics:
    """Zero-order-hold control performance over [first sample, run_duration]."""
    midpoint = thresholds.midpoint
    time_above = 0.0
    time_below = 0.0
    weighted_dev = 0.0
    total = 0.0
    previous_start = None
    for i, episode in enumerate(episodes):
        if previous_start is not None and episode.t_start <= previous_start:
            raise InvalidInput(
                f"episode timestamps are not strictly increasing at index {episode.index}"
            )
        previous_start = episode.t_start
        t_next = episodes[i + 1].t_start if i + 1 < len(episodes) else run_duration
        width = max(0.0, t_next - episode.t_start)
        if episode.t_sensor > thresholds.high:
            time_above += width
        elif episode.t_sensor < thresholds.low:
            time_below += width
        weighted_dev += abs(episode.t_sensor - midpoint) * width
        total += width
    return ControlMetrics(
        avg_deviation=weighted_dev / total if total > 0 else 0.0,
        time_above=time_above,
        time_below=time_below,
        time_outside=time_above + time_below,
        midpoint=midpoint,
    )


def run_metrics(
    episodes: list[EpisodeRecord], thresholds: Thresholds, run_duration: float
) -> RunMetrics:
    return RunMetrics(
        accuracy=accuracy_metrics(episodes),
        control=control_metrics(episodes, thresholds, run_duration),
    )


def _cells(m: RunMetrics) -> list[str]:
    """Each metric as report text, in the order of _ROWS: counts as
    integers, everything else with two decimals."""
    values = [getattr(part, f.name) for part in (m.accuracy, m.control) for f in fields(part)]
    return [str(v) if isinstance(v, int) else f"{v:.2f}" for v in values]


def report(m: RunMetrics, fmt: str = TABLE) -> str:
    """Render both metric blocks in the requested format; the machine format
    is the record encoding of ``m``, which ``loads_record(text, RunMetrics)``
    reads back."""
    if fmt == TABLE:
        width = max(len(label) for label, _ in _ROWS)
        return "\n".join(
            f"{label.ljust(width)}  {cell}"
            for (label, _), cell in zip(_ROWS, _cells(m), strict=True)
        )
    if fmt == CSV:
        return ",".join(CSV_COLUMNS) + "\n" + ",".join(_cells(m))
    if fmt == MACHINE:
        return dumps_record(m)
    raise InvalidInput(f"unknown report format {fmt!r}")


def points_dump(episodes: list[EpisodeRecord]) -> str:
    """One `t,temperature,action` line per episode, each ended by a newline,
    for external plotting; no episode is no text."""
    return "".join(f"{e.t_start:.3f},{e.t_sensor:.3f},{e.applied.value}\n" for e in episodes)
