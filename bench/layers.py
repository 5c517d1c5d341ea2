"""Per-layer metrics derived from the spans of traced processes.

Totals, self times and counts are taken per traced process and reported as the
lower median over the run's traced processes, so each value is one process's;
percentiles pool the spans of all of them. A layer a workload does not reach
reads 0.
"""
from __future__ import annotations

import statistics

from tracer import self_times

# (name, unit, better); BENCHMARK.json lists the same metrics in the same order
LAYER_METRICS = [
    ("fit.fit_sensorgram.calls", "count", "lower"),
    ("fit.fit_sensorgram.p50_us", "us", "lower"),
    ("fit.fit_sensorgram.p99_us", "us", "lower"),
    ("fit.fit_sensorgram.self_s", "s", "lower"),
    ("fit.lm_solve.calls", "count", "lower"),
    ("fit.lm_solve.total_s", "s", "lower"),
    ("fit.lm_solve.nonconverged", "count", "lower"),
    ("fit.lm_solve.iters_mean.dissociation", "iterations", "lower"),
    ("fit.lm_solve.iters_mean.association", "iterations", "lower"),
    ("fit.lm_solve.iters_max.dissociation", "iterations", "lower"),
    ("fit.lm_solve.iters_max.association", "iterations", "lower"),
    ("fit.converged_ratio", "ratio", "higher"),
    ("simulate.run_ensemble.calls", "count", "lower"),
    ("simulate.run_ensemble.per_fit_us", "us", "lower"),
    ("simulate.run_ensemble.self_s", "s", "lower"),
    ("simulate.sensorgram_substream.total_s", "s", "lower"),
    ("simulate.standard_normals.total_s", "s", "lower"),
    ("simulate.failed_fits", "count", "lower"),
    ("simulate.failed_fit_fraction", "ratio", "lower"),
    ("simulate.unreliable_ensembles", "count", "lower"),
    ("simulate.pool_cpu_efficiency", "ratio", "higher"),
    ("probes.mean_M.calls", "count", "lower"),
    ("probes.delta_M.calls", "count", "lower"),
    ("probes.delta_M.total_s", "s", "lower"),
    ("probes.midpoint_enhancement_map.total_s", "s", "lower"),
    ("probes.delta_M_channels.calls", "count", "lower"),
    ("kinetics.reconstruct_transmittance_sensorgram.total_s", "s", "lower"),
    ("kinetics.linearize_sensorgram.total_s", "s", "lower"),
    ("spr_optics.transmittance_from_index.total_s", "s", "lower"),
    ("oracle.build_state.calls", "count", "lower"),
    ("oracle.build_state.total_s", "s", "lower"),
    ("oracle.build_state.p50_us", "us", "lower"),
    ("oracle.apply_channels.total_s", "s", "lower"),
    ("oracle.oracle_moments.total_s", "s", "lower"),
    ("oracle.verify_closed_forms.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.run_experiment.self_s", "s", "lower"),
    ("cli.ensembles_requested", "count", "lower"),
    ("cli.ensembles_run", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_COUNTED = ("fit.fit_sensorgram", "fit.lm_solve", "simulate.run_ensemble", "probes.mean_M",
            "probes.delta_M", "probes.delta_M_channels", "oracle.build_state")
_TOTALLED = ("fit.lm_solve", "simulate.sensorgram_substream", "simulate.standard_normals",
             "probes.delta_M", "probes.midpoint_enhancement_map",
             "kinetics.reconstruct_transmittance_sensorgram", "kinetics.linearize_sensorgram",
             "spr_optics.transmittance_from_index", "oracle.build_state", "oracle.apply_channels",
             "oracle.oracle_moments")
_SELF = ("fit.fit_sensorgram", "simulate.run_ensemble", "oracle.verify_closed_forms",
         "cli.run_experiment")
_SEGMENTS = {"dissociation": 3, "association": 2}  # lm_solve parameters per segment fit


def _percentile_us(durations: list[float], q: int) -> float:
    if len(durations) < 2:
        return 1e6 * durations[0] if durations else 0.0
    return 1e6 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def process_metrics(trace: dict, results: list[dict] | None, fits_per_ensemble: int) -> dict:
    """Per-layer values of one traced process."""
    spans = trace["spans"]
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def named(name):
        return [spans[i] for i in by_name.get(name, [])]

    out = {}
    for name in _COUNTED:
        out[f"{name}.calls"] = len(by_name.get(name, []))
    for name in _TOTALLED:
        out[f"{name}.total_s"] = sum(end - start for _, start, end, _, _ in named(name))
    for name in _SELF:
        out[f"{name}.self_s"] = sum(own[i] for i in by_name.get(name, []))

    solves = [extra for *_, extra in named("fit.lm_solve") if extra and "iters" in extra]
    out["fit.lm_solve.nonconverged"] = sum(not s["converged"] for s in solves)
    for segment, params in _SEGMENTS.items():
        iters = [s["iters"] for s in solves if s["params"] == params]
        out[f"fit.lm_solve.iters_mean.{segment}"] = statistics.fmean(iters) if iters else 0.0
        out[f"fit.lm_solve.iters_max.{segment}"] = max(iters, default=0)

    ensembles = [(end - start, extra) for _, start, end, _, extra in named("simulate.run_ensemble")
                 if extra and "fits" in extra]
    fits = sum(e["fits"] for _, e in ensembles)
    failed = sum(e["failed"] for _, e in ensembles)
    busy = sum(d * e["workers"] for d, e in ensembles)
    out["fit.converged_ratio"] = (fits - failed) / fits if fits else 0.0
    out["simulate.run_ensemble.per_fit_us"] = (
        1e6 * sum(d for d, _ in ensembles) / fits if fits else 0.0
    )
    out["simulate.failed_fits"] = failed
    out["simulate.unreliable_ensembles"] = sum(e["unreliable"] for _, e in ensembles)
    out["simulate.pool_cpu_efficiency"] = sum(e["cpu_s"] for _, e in ensembles) / busy if busy else 0.0

    points = {}
    for row in results or []:
        points[(row["state"], row["N"], row["nu"], row["m"])] = int(row["failed_fits"])
    out["simulate.failed_fit_fraction"] = (
        sum(points.values()) / (len(points) * fits_per_ensemble) if points else 0.0
    )
    out["cli.ensembles_requested"] = len(points) + len(by_name.get("simulate.enhancement_Rk", []))
    out["cli.ensembles_run"] = len(ensembles)
    out["cli.import_s"] = trace["import_s"]
    return out


def layer_metrics(workload, record) -> tuple[dict, dict, list[str]]:
    """Per-layer values of a traced run, the sample count behind each, and notes."""
    per_process = [
        process_metrics(trace, results, workload.fits_per_ensemble)
        for trace, results in zip(record.traces, record.results or [None] * len(record.traces))
    ]
    n = len(per_process)
    values, samples = {}, {}
    for name in per_process[0]:
        values[name] = statistics.median_low(p[name] for p in per_process)
        samples[name] = n
    for name, q in (("fit.fit_sensorgram", 50), ("fit.fit_sensorgram", 99), ("oracle.build_state", 50)):
        durations = [end - start for trace in record.traces
                     for span_name, start, end, _, _ in trace["spans"] if span_name == name]
        values[f"{name}.p{q}_us"] = _percentile_us(durations, q)
        samples[f"{name}.p{q}_us"] = len(durations)
    values["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in record.traced)
        - statistics.median(p.wall_s for p in record.plain)
    )
    samples["trace.overhead_s"] = len(record.traced) + len(record.plain)

    order = [name for name, _, _ in LAYER_METRICS]
    values = {name: values[name] for name in order if name in values}
    notes = [f"per-layer values: medians over {n} traced process(es); percentiles pool their spans"]
    if any(span[0] == "simulate.run_ensemble" and span[4] and span[4].get("workers", 1) > 1
           for trace in record.traces for span in trace["spans"]):
        notes.append(
            "fits ran in pool workers whose spans are lost: fit.* read 0 and the simulate RNG "
            "spans cover only the parent's sample sensorgrams (readme-sweep measures both); "
            "pool_cpu_efficiency uses worker CPU from rusage"
        )
    return values, samples, notes
