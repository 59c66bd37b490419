#!/usr/bin/env python3
"""Bench regression gate: diff a BENCH_micro.json run against a committed
baseline and fail on slowdowns.

Usage:
    check_bench.py CURRENT BASELINE [--threshold 0.25] [--skip METRIC ...]

Every metric present in both files is compared as a ratio
current / baseline; any metric slower than (1 + threshold) fails the gate.
The values are the median of several chrono-timed runs (bench_micro's
SecondsPerCall), which absorbs most CI-runner noise; the generous default
threshold absorbs the rest. Speedups and new metrics never fail -- the gate
only guards against regressions of the counters the baseline pins.

With --calibrate METRIC, every ratio is divided by that metric's own
current/baseline ratio before the threshold check. This cancels the
absolute speed difference between the machine that recorded the baseline
and the machine running the gate (CI runners are not the dev box), turning
the gate into a relative-profile check: "did anything slow down relative
to the calibration workload". The calibration metric itself is then exempt
from the threshold but sanity-bounded -- a machine-factor outside
[1/max-factor, max-factor] fails loudly rather than silently rescaling a
real regression away.

With --query-amortization BENCH_queries.json the tool instead (or
additionally) gates the multi-query sweep: for every strategy the
per-query bytes/epoch must strictly decrease with query-set width, and at
the widest set the per-query bytes must stay below --amortization-max
(default 0.6) times the cost of the same queries run independently. These
are deterministic byte tallies (simulation counters, not timings), so the
gate is exact and needs no baseline file.

With --windows BENCH_windows.json the tool gates the windowed-aggregation
sweep: for every strategy the bytes/epoch must be EXACTLY equal across
every window width (including the windowless width-0 baseline row) --
windows are pure base-station re-merging and may not move a single radio
byte -- and the sliding combiner's state-maintenance merges must stay
within the two-stacks amortized bound of --max-merges-per-epoch (default
2.0) merges per epoch. Deterministic counters; exact; no baseline file.

With --federation BENCH_federation.json the tool gates the serving-layer
fan-out sweep: at the largest subscriber count the dedup mode must do at
least --min-dedup-factor (default 100) times fewer window merges than the
naive per-subscriber-recomputation mode; every dedup row's merge chains
per epoch must equal its computation-group count (coordinator work scales
with groups, never subscribers); and the dedup rows' window merges must be
identical across all subscriber counts. Deterministic counters; exact; no
baseline file.

With --linklayer BENCH_linklayer.json the tool gates the link-layer
degradation sweep: every cell must be thread-count deterministic; at every
retry budget the ETX-routed arm must deliver at least as well as hop-count
routing at equal-or-lower radio bytes, and with retries enabled
(budget >= 2) the delivery advantage must be strict; and the best ETX arm
must clear --min-etx-delivery (default 0.8). Deterministic counters;
exact; no baseline file.

With --accuracy BENCH_accuracy.json the tool gates the quantile
accuracy/bytes sweep: every q-digest cell's observed worst-case rank
error must sit at or under its theoretical bits*floor(n/k)/n bound,
every cell (digest and sample) must be deterministic across two fresh
runs, and at least one digest cell must beat the sample synopsis on
both axes -- strictly fewer bytes/epoch at equal-or-better observed
error. Deterministic counters; exact; no baseline file.

With --scaling BENCH_micro.json the tool gates the scaling curve: the
1M-sensor epoch must be present and under --max-1m-epoch-ms (default
60000) so the curve stays inside the CI job budget, every per-n
determinism flag must be 1 (two fresh runs produced identical estimates
and byte tallies), and the 10k/100k match flags must be 1 (the per-epoch
estimates and byte total equal the recording bench_micro carries). The
scenario build time per size (scaling_build_ms_*) is printed beside the
epoch, report only. The epoch speed itself is not gated here: the repository benchmark's sd-100k
workload times the same configuration as a same-machine A/B. The budget
is generous; the flags are exact.

With --telemetry BENCH_micro.json the tool gates the flight-recorder cost
rows written by bench_micro --telemetry: both bit-identity flags must be
exactly 1 (telemetry off is deterministic across two fresh runs, and a
telemetry-on run reproduced the off run's every estimate/byte/retry
counter bit-for-bit), and with --telemetry-baseline BASELINE the
telemetry-off epoch time is held against the committed pre-telemetry
td_epoch_us within --max-telemetry-off-overhead percent (default 2.0),
machine-calibrated by the rle_calibration_ns ratio like the main gate.
Without a baseline the overhead comparison is skipped and only the exact
flags gate.

Exit codes: 0 ok, 1 regression, 2 usage/parse error.
"""

import argparse
import json
import sys


def load_metrics(path):
    doc = load_doc(path)
    metrics = {}
    for row in doc.get("results", []):
        name = row.get("metric")
        value = row.get("value")
        if isinstance(name, str) and isinstance(value, (int, float)):
            metrics[name] = float(value)
    if not metrics:
        print(f"check_bench: no metric/value rows in {path}", file=sys.stderr)
        sys.exit(2)
    return metrics, doc


def load_doc(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def check_query_amortization(path, amortization_max):
    """Gate BENCH_queries.json: per-query bytes must fall with width, and
    the widest set must amortize below amortization_max of independent
    runs. Returns a list of failure strings."""
    doc = load_doc(path)
    by_strategy = {}
    for row in doc.get("results", []):
        strategy = row.get("strategy")
        width = row.get("width")
        per_query = row.get("per_query_bytes")
        independent = row.get("independent_per_query_bytes")
        if not isinstance(strategy, str) or not isinstance(width, (int, float)):
            continue
        if not isinstance(per_query, (int, float)) or \
                not isinstance(independent, (int, float)):
            print(f"check_bench: row for {strategy} width {width} lacks "
                  f"per_query_bytes/independent_per_query_bytes in {path}",
                  file=sys.stderr)
            sys.exit(2)
        by_strategy.setdefault(strategy, []).append(
            (int(width), float(per_query), float(independent)))
    if not by_strategy:
        print(f"check_bench: no query-sweep rows in {path}", file=sys.stderr)
        sys.exit(2)

    failures = []
    print(f"query-amortization gate: {path}, "
          f"widest set must be < {amortization_max:.0%} of independent runs")
    for strategy, rows in sorted(by_strategy.items()):
        rows.sort()
        prev = None
        for width, per_query, _ in rows:
            if prev is not None and per_query >= prev:
                failures.append(
                    f"{strategy}: per-query bytes rose at width {width} "
                    f"({prev:.1f} -> {per_query:.1f})")
            prev = per_query
        width, per_query, independent = rows[-1]
        ratio = per_query / independent
        verdict = "ok" if ratio < amortization_max else "REGRESSED"
        print(f"  {strategy:<12} width {width}: {per_query:>8.1f} vs "
              f"{independent:>8.1f} independent  ({ratio:.2f}x)  {verdict}")
        if verdict != "ok":
            failures.append(
                f"{strategy}: width-{width} per-query bytes are {ratio:.2f}x "
                f"of independent runs (gate {amortization_max})")
    return failures


def check_windows(path, max_merges):
    """Gate BENCH_windows.json: bytes/epoch must be bit-identical across
    window widths (windows add zero radio bytes) and sliding-window merges
    must respect the two-stacks amortized bound. Returns failure strings."""
    doc = load_doc(path)
    by_strategy = {}
    for row in doc.get("results", []):
        strategy = row.get("strategy")
        width = row.get("width")
        bytes_pe = row.get("bytes_per_epoch")
        merges = row.get("merges_per_epoch")
        # Unlike the query sweep, every results row here belongs to the
        # gate; a malformed row is a json regression, not something to
        # skip silently (the gate's whole job is catching those).
        if not isinstance(strategy, str) or \
                not isinstance(width, (int, float)) or \
                not isinstance(bytes_pe, (int, float)) or \
                not isinstance(merges, (int, float)):
            print(f"check_bench: malformed window-sweep row {row!r} in "
                  f"{path}", file=sys.stderr)
            sys.exit(2)
        by_strategy.setdefault(strategy, []).append(
            (int(width), float(bytes_pe), float(merges)))
    if not by_strategy:
        print(f"check_bench: no window-sweep rows in {path}", file=sys.stderr)
        sys.exit(2)

    failures = []
    print(f"windows gate: {path}, bytes/epoch must be identical across "
          f"widths, merges/epoch <= {max_merges}")
    for strategy, rows in sorted(by_strategy.items()):
        rows.sort()
        base_bytes = rows[0][1]
        worst_merges = max(m for _, _, m in rows)
        flat = all(b == base_bytes for _, b, _ in rows)
        verdict = "ok" if flat and worst_merges <= max_merges else "REGRESSED"
        print(f"  {strategy:<12} widths {[w for w, _, _ in rows]}: "
              f"{base_bytes:.1f} B/epoch, worst {worst_merges:.3f} "
              f"merges/epoch  {verdict}")
        if not flat:
            failures.append(
                f"{strategy}: bytes/epoch varies with window width "
                f"({[b for _, b, _ in rows]}) -- windows moved radio bytes")
        if worst_merges > max_merges:
            failures.append(
                f"{strategy}: {worst_merges:.3f} merges/epoch exceeds the "
                f"two-stacks bound {max_merges}")
    return failures


def check_federation(path, min_factor):
    """Gate BENCH_federation.json: dedup must beat naive per-subscriber
    recomputation by min_factor window merges at the largest fan-out,
    coordinator chains must scale with groups, and dedup window work must
    be flat in subscriber count. Returns failure strings."""
    doc = load_doc(path)
    rows = {}
    for row in doc.get("results", []):
        mode = row.get("mode")
        subs = row.get("subscribers")
        merges = row.get("window_merges")
        groups = row.get("groups")
        chains = row.get("merge_chains_per_epoch")
        # Every row belongs to the gate; a malformed row is a json
        # regression, not something to skip silently.
        if mode not in ("dedup", "naive") or \
                not isinstance(subs, (int, float)) or \
                not isinstance(merges, (int, float)) or \
                not isinstance(groups, (int, float)) or \
                not isinstance(chains, (int, float)):
            print(f"check_bench: malformed federation row {row!r} in {path}",
                  file=sys.stderr)
            sys.exit(2)
        rows[(mode, int(subs))] = \
            (float(merges), float(groups), float(chains))
    dedup_subs = sorted(s for m, s in rows if m == "dedup")
    paired = [s for s in dedup_subs if ("naive", s) in rows]
    if not paired:
        print(f"check_bench: no dedup/naive row pairs in {path}",
              file=sys.stderr)
        sys.exit(2)

    failures = []
    top = max(paired)
    print(f"federation gate: {path}, dedup factor >= {min_factor:g}x at "
          f"{top} subscribers, chains/epoch == groups, flat dedup work")
    for subs in paired:
        d_merges, d_groups, d_chains = rows[("dedup", subs)]
        n_merges = rows[("naive", subs)][0]
        factor = n_merges / d_merges if d_merges > 0 else float("inf")
        print(f"  S={subs:<6} dedup {d_merges:>8.0f} merges "
              f"({d_groups:.0f} groups, {d_chains:.0f} chains/epoch) vs "
              f"naive {n_merges:>8.0f}  ({factor:.0f}x)")
        if d_chains != d_groups:
            failures.append(
                f"S={subs}: dedup merge chains/epoch ({d_chains:.0f}) != "
                f"groups ({d_groups:.0f}) -- coordinator work scaled with "
                f"subscribers")
    top_d = rows[("dedup", top)][0]
    top_n = rows[("naive", top)][0]
    factor = top_n / top_d if top_d > 0 else float("inf")
    if factor < min_factor:
        failures.append(
            f"dedup factor at S={top} is {factor:.1f}x < {min_factor:g}x")
    flat = {rows[("dedup", s)][0] for s in dedup_subs}
    if len(flat) != 1:
        failures.append(
            f"dedup window merges vary with subscriber count ({sorted(flat)})"
            f" -- shared computation is leaking per-subscriber work")
    return failures


def check_linklayer(path, min_delivery):
    """Gate BENCH_linklayer.json: thread-count determinism everywhere,
    ETX routing at least matches hop-count delivery at equal-or-lower
    bytes at every retry budget (strictly better delivery once retries
    are on), and the best ETX arm clears the delivery floor. Returns
    failure strings."""
    doc = load_doc(path)
    rows = {}
    for row in doc.get("results", []):
        routing = row.get("routing")
        budget = row.get("budget")
        aging = row.get("aging")
        delivery = row.get("delivery_ratio")
        bytes_pe = row.get("bytes_per_epoch")
        deterministic = row.get("deterministic")
        # Every row belongs to the gate; a malformed row is a json
        # regression, not something to skip silently.
        if routing not in ("hop", "etx") or \
                not isinstance(budget, (int, float)) or \
                not isinstance(aging, (int, float)) or \
                not isinstance(delivery, (int, float)) or \
                not isinstance(bytes_pe, (int, float)) or \
                not isinstance(deterministic, (int, float)):
            print(f"check_bench: malformed link-layer row {row!r} in {path}",
                  file=sys.stderr)
            sys.exit(2)
        rows[(routing, int(budget), bool(aging))] = \
            (float(delivery), float(bytes_pe), bool(deterministic))

    budgets = sorted({b for r, b, a in rows
                      if not a and ("hop", b, False) in rows
                      and ("etx", b, False) in rows})
    if not budgets:
        print(f"check_bench: no hop/etx row pairs in {path}", file=sys.stderr)
        sys.exit(2)

    failures = []
    print(f"link-layer gate: {path}, etx must match-or-beat hop delivery at "
          f"<= bytes (strictly beat once budget >= 2), best etx delivery >= "
          f"{min_delivery:g}")
    for (routing, budget, aging), (_, _, det) in sorted(rows.items()):
        if not det:
            arm = routing + ("+aging" if aging else "")
            failures.append(
                f"{arm}/budget={budget}: Threads(1) vs Threads(N) sweeps "
                f"diverged -- trial runner is nondeterministic")
    for budget in budgets:
        e_delivery, e_bytes, _ = rows[("etx", budget, False)]
        h_delivery, h_bytes, _ = rows[("hop", budget, False)]
        strict = budget >= 2
        delivery_ok = e_delivery > h_delivery if strict \
            else e_delivery >= h_delivery
        bytes_ok = e_bytes <= h_bytes
        verdict = "ok" if delivery_ok and bytes_ok else "REGRESSED"
        print(f"  budget {budget}: etx {e_delivery:.3f} delivery / "
              f"{e_bytes:.0f} B vs hop {h_delivery:.3f} / {h_bytes:.0f} B  "
              f"{verdict}")
        if not delivery_ok:
            op = ">" if strict else ">="
            failures.append(
                f"budget {budget}: etx delivery {e_delivery:.4f} not {op} "
                f"hop {h_delivery:.4f}")
        if not bytes_ok:
            failures.append(
                f"budget {budget}: etx spends {e_bytes:.0f} B/epoch > hop "
                f"{h_bytes:.0f} -- quality routing must not cost energy")
    best = max(rows[("etx", b, False)][0] for b in budgets)
    if best < min_delivery:
        failures.append(
            f"best etx delivery ratio {best:.4f} below floor {min_delivery:g}")
    return failures


def check_accuracy(path):
    """Gate BENCH_accuracy.json: digest cells honor their theoretical
    rank-error bound, everything is deterministic, and some digest cell
    dominates the sample synopsis on bytes AND error. Returns failure
    strings."""
    doc = load_doc(path)
    sample = None
    digests = []
    for row in doc.get("results", []):
        synopsis = row.get("synopsis")
        k = row.get("k")
        bytes_pe = row.get("bytes_per_epoch")
        observed = row.get("observed_rank_eps")
        deterministic = row.get("deterministic")
        # Every row belongs to the gate; a malformed row is a json
        # regression, not something to skip silently.
        if synopsis not in ("sample", "qdigest") or \
                not isinstance(k, (int, float)) or \
                not isinstance(bytes_pe, (int, float)) or \
                not isinstance(observed, (int, float)) or \
                not isinstance(deterministic, (int, float)):
            print(f"check_bench: malformed accuracy row {row!r} in {path}",
                  file=sys.stderr)
            sys.exit(2)
        if synopsis == "sample":
            sample = (float(bytes_pe), float(observed), bool(deterministic))
        else:
            theory = row.get("theory_eps")
            if not isinstance(theory, (int, float)):
                print(f"check_bench: qdigest row k={k} lacks theory_eps in "
                      f"{path}", file=sys.stderr)
                sys.exit(2)
            digests.append((int(k), float(bytes_pe), float(observed),
                            float(theory), bool(deterministic)))
    if sample is None or not digests:
        print(f"check_bench: need a sample row and qdigest rows in {path}",
              file=sys.stderr)
        sys.exit(2)

    failures = []
    s_bytes, s_eps, s_det = sample
    print(f"accuracy gate: {path}, qdigest observed eps <= theory in every "
          f"cell, all cells deterministic, some cell beats sample "
          f"({s_bytes:.0f} B/epoch at {s_eps:.4f} eps) on both axes")
    if not s_det:
        failures.append("sample synopsis cell is nondeterministic")
    dominated = False
    for k, bytes_pe, observed, theory, det in sorted(digests):
        bound_ok = observed <= theory
        wins = bytes_pe < s_bytes and observed <= s_eps
        dominated = dominated or wins
        verdict = "ok" if bound_ok and det else "REGRESSED"
        print(f"  k={k:<5} {bytes_pe:>9.1f} B/epoch  observed {observed:.4f} "
              f"vs theory {theory:.4f}  "
              f"{'beats sample' if wins else '-':<13} {verdict}")
        if not bound_ok:
            failures.append(
                f"k={k}: observed rank eps {observed:.4f} exceeds the "
                f"theoretical bound {theory:.4f}")
        if not det:
            failures.append(f"k={k}: two fresh runs diverged -- the digest "
                            f"pipeline is nondeterministic")
    if not dominated:
        failures.append(
            f"no qdigest cell beats the sample synopsis ({s_bytes:.0f} "
            f"B/epoch, {s_eps:.4f} eps) at fewer bytes and equal-or-better "
            f"error")
    return failures


def check_scaling(path, max_1m_epoch_ms):
    """Gate the scaling_* rows of BENCH_micro.json: a bounded 1M epoch and
    exact determinism/recording-match flags. Returns failure strings."""
    metrics, _ = load_metrics(path)
    failures = []
    required = [
        "scaling_soa_epoch_ms_10k", "scaling_soa_epoch_ms_100k",
        "scaling_soa_epoch_ms_1m", "scaling_soa_deterministic_10k",
        "scaling_soa_deterministic_100k", "scaling_soa_deterministic_1m",
        "scaling_match_10k", "scaling_match_100k",
    ]
    missing = [m for m in required if m not in metrics]
    if missing:
        return [f"scaling rows missing from {path}: {', '.join(missing)} "
                f"(was bench_micro run with --scaling?)"]

    print(f"scaling gate: {path}, 1M epoch <= {max_1m_epoch_ms:g} ms, "
          f"exact flags")
    for tag in ("10k", "100k", "1m"):
        ms = metrics[f"scaling_soa_epoch_ms_{tag}"]
        build = metrics.get(f"scaling_build_ms_{tag}")
        build_col = f"{build:>9.1f} ms build  " if build is not None else ""
        print(f"  n={tag:<5} {build_col}{ms:>9.1f} ms/epoch")
    ms_1m = metrics["scaling_soa_epoch_ms_1m"]
    if not ms_1m > 0:
        failures.append("1M-sensor epoch time is not positive -- "
                        "the 1M arm did not actually run")
    if ms_1m > max_1m_epoch_ms:
        failures.append(
            f"1M-sensor epoch took {ms_1m:.0f} ms > "
            f"{max_1m_epoch_ms:g} ms budget")
    for tag in ("10k", "100k", "1m"):
        if metrics[f"scaling_soa_deterministic_{tag}"] != 1:
            failures.append(
                f"n={tag}: two fresh runs diverged -- the engine core "
                f"is nondeterministic")
    for tag in ("10k", "100k"):
        if metrics[f"scaling_match_{tag}"] != 1:
            failures.append(
                f"n={tag}: per-epoch estimates or byte total differ from "
                f"the recording in bench_micro -- results drifted at scale")
    return failures


def check_telemetry(path, baseline_path, max_overhead_pct,
                    max_machine_factor):
    """Gate the telemetry_* rows of BENCH_micro.json: exact off-determinism
    and off==on bit-identity flags, plus (with a baseline) the telemetry-off
    epoch time within max_overhead_pct of the pre-telemetry td_epoch_us.
    Returns failure strings."""
    metrics, _ = load_metrics(path)
    failures = []
    required = [
        "telemetry_off_td_epoch_us", "telemetry_on_td_epoch_us",
        "telemetry_off_deterministic", "telemetry_offon_match",
    ]
    missing = [m for m in required if m not in metrics]
    if missing:
        return [f"telemetry rows missing from {path}: {', '.join(missing)} "
                f"(was bench_micro run with --telemetry?)"]

    off_us = metrics["telemetry_off_td_epoch_us"]
    on_us = metrics["telemetry_on_td_epoch_us"]
    print(f"telemetry gate: {path}, off {off_us:.1f} us/epoch, "
          f"on {on_us:.1f} us/epoch "
          f"({(on_us / off_us - 1.0) * 100.0:+.2f}%), exact flags")
    if metrics["telemetry_off_deterministic"] != 1:
        failures.append("two fresh telemetry-off runs diverged -- the "
                        "simulation is nondeterministic")
    if metrics["telemetry_offon_match"] != 1:
        failures.append("a telemetry-on run changed the simulation output "
                        "-- the observe-only contract broke")

    if baseline_path is None:
        print("  (no --telemetry-baseline; off-overhead comparison skipped)")
        return failures
    baseline, _ = load_metrics(baseline_path)
    cal = "rle_calibration_ns"
    if ("td_epoch_us" not in baseline or cal not in baseline
            or cal not in metrics or baseline[cal] <= 0):
        failures.append(f"baseline {baseline_path} lacks td_epoch_us or "
                        f"{cal}; cannot price the off-overhead")
        return failures
    scale = metrics[cal] / baseline[cal]
    print(f"  calibration: {cal} machine factor {scale:.2f}x")
    if not 1.0 / max_machine_factor <= scale <= max_machine_factor:
        failures.append(
            f"calibration factor {scale:.2f}x outside sanity bound "
            f"{max_machine_factor}x -- baseline and runner are not "
            f"comparable (or {cal} itself regressed badly)")
        return failures
    expected_us = baseline["td_epoch_us"] * scale
    overhead_pct = (off_us / expected_us - 1.0) * 100.0
    print(f"  off vs pre-telemetry baseline: {off_us:.1f} us vs "
          f"{expected_us:.1f} us expected ({overhead_pct:+.2f}%, "
          f"gate +{max_overhead_pct:g}%)")
    if overhead_pct > max_overhead_pct:
        failures.append(
            f"telemetry-off epoch is {overhead_pct:.2f}% over the "
            f"pre-telemetry baseline (gate {max_overhead_pct:g}%) -- the "
            f"dormant hooks are not free")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", nargs="?",
                        help="BENCH_micro.json from this build")
    parser.add_argument("baseline", nargs="?", help="pinned baseline json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed slowdown fraction (default 0.25)")
    parser.add_argument("--skip", action="append", default=[],
                        metavar="METRIC",
                        help="metric to exclude (repeatable); thread-count-"
                             "dependent counters don't compare across "
                             "runner shapes")
    parser.add_argument("--calibrate", metavar="METRIC", default=None,
                        help="divide every ratio by this metric's ratio to "
                             "cancel baseline-machine vs gate-machine speed")
    parser.add_argument("--max-machine-factor", type=float, default=4.0,
                        help="sanity bound on the calibration ratio "
                             "(default 4.0)")
    parser.add_argument("--query-amortization", metavar="JSON", default=None,
                        help="gate a BENCH_queries.json multi-query sweep "
                             "(no baseline needed; deterministic counters)")
    parser.add_argument("--amortization-max", type=float, default=0.6,
                        help="widest-set per-query bytes must be below this "
                             "fraction of independent runs (default 0.6)")
    parser.add_argument("--windows", metavar="JSON", default=None,
                        help="gate a BENCH_windows.json windowed sweep "
                             "(no baseline needed; deterministic counters)")
    parser.add_argument("--max-merges-per-epoch", type=float, default=2.0,
                        help="two-stacks amortized bound on sliding-window "
                             "state merges per epoch (default 2.0)")
    parser.add_argument("--federation", metavar="JSON", default=None,
                        help="gate a BENCH_federation.json fan-out sweep "
                             "(no baseline needed; deterministic counters)")
    parser.add_argument("--min-dedup-factor", type=float, default=100.0,
                        help="required window-merge advantage of dedup over "
                             "naive at the largest fan-out (default 100)")
    parser.add_argument("--linklayer", metavar="JSON", default=None,
                        help="gate a BENCH_linklayer.json degradation sweep "
                             "(no baseline needed; deterministic counters)")
    parser.add_argument("--min-etx-delivery", type=float, default=0.8,
                        help="delivery-ratio floor for the best ETX arm "
                             "under the reference fault schedule "
                             "(default 0.8)")
    parser.add_argument("--accuracy", metavar="JSON", default=None,
                        help="gate a BENCH_accuracy.json quantile sweep "
                             "(no baseline needed; deterministic counters)")
    parser.add_argument("--scaling", metavar="JSON", default=None,
                        help="gate the scaling_* rows of a BENCH_micro.json "
                             "written by bench_micro --scaling")
    parser.add_argument("--max-1m-epoch-ms", type=float, default=60000.0,
                        help="budget for one 1M-sensor epoch in ms "
                             "(default 60000)")
    parser.add_argument("--telemetry", metavar="JSON", default=None,
                        help="gate the telemetry_* rows of a "
                             "BENCH_micro.json written by bench_micro "
                             "--telemetry")
    parser.add_argument("--telemetry-baseline", metavar="JSON", default=None,
                        help="pre-telemetry baseline json holding "
                             "td_epoch_us; enables the off-overhead check")
    parser.add_argument("--max-telemetry-off-overhead", type=float,
                        default=2.0,
                        help="max telemetry-off slowdown vs the baseline "
                             "td_epoch_us, in percent (default 2.0)")
    args = parser.parse_args()

    ran_gate = False
    if args.query_amortization:
        ran_gate = True
        failures = check_query_amortization(args.query_amortization,
                                            args.amortization_max)
        if failures:
            print("\nFAILED:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            sys.exit(1)
        print("query-amortization gate: OK")
    if args.windows:
        ran_gate = True
        failures = check_windows(args.windows, args.max_merges_per_epoch)
        if failures:
            print("\nFAILED:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            sys.exit(1)
        print("windows gate: OK")
    if args.federation:
        ran_gate = True
        failures = check_federation(args.federation, args.min_dedup_factor)
        if failures:
            print("\nFAILED:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            sys.exit(1)
        print("federation gate: OK")
    if args.linklayer:
        ran_gate = True
        failures = check_linklayer(args.linklayer, args.min_etx_delivery)
        if failures:
            print("\nFAILED:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            sys.exit(1)
        print("link-layer gate: OK")
    if args.accuracy:
        ran_gate = True
        failures = check_accuracy(args.accuracy)
        if failures:
            print("\nFAILED:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            sys.exit(1)
        print("accuracy gate: OK")
    if args.scaling:
        ran_gate = True
        failures = check_scaling(args.scaling, args.max_1m_epoch_ms)
        if failures:
            print("\nFAILED:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            sys.exit(1)
        print("scaling gate: OK")
    if args.telemetry:
        ran_gate = True
        failures = check_telemetry(args.telemetry, args.telemetry_baseline,
                                   args.max_telemetry_off_overhead,
                                   args.max_machine_factor)
        if failures:
            print("\nFAILED:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            sys.exit(1)
        print("telemetry gate: OK")
    if ran_gate and args.current is None:
        return
    if args.current is None or args.baseline is None:
        parser.error("current and baseline are required unless "
                     "--query-amortization, --windows, --federation, "
                     "--linklayer, --accuracy, --scaling or --telemetry "
                     "is given")

    current, cur_doc = load_metrics(args.current)
    baseline, _ = load_metrics(args.baseline)

    sha = cur_doc.get("git_sha", "unknown")
    build = cur_doc.get("build_type", "unknown")
    print(f"bench gate: {args.current} (git {sha}, {build}) "
          f"vs {args.baseline}, threshold +{args.threshold:.0%}")

    failures = []
    scale = 1.0
    if args.calibrate:
        cal = args.calibrate
        if cal not in current or cal not in baseline or baseline[cal] <= 0:
            print(f"check_bench: calibration metric {cal} missing",
                  file=sys.stderr)
            sys.exit(2)
        scale = current[cal] / baseline[cal]
        print(f"  calibration: {cal} machine factor {scale:.2f}x")
        if not (1.0 / args.max_machine_factor <= scale
                <= args.max_machine_factor):
            # Don't fall through to per-metric comparisons: uncalibrated
            # ratios against an incomparable machine would bury this one
            # actionable message under a wall of spurious REGRESSED lines.
            print(f"\nFAILED:\n  calibration factor {scale:.2f}x outside "
                  f"sanity bound {args.max_machine_factor}x -- baseline "
                  f"and runner are not comparable (or {cal} itself "
                  f"regressed badly)", file=sys.stderr)
            sys.exit(1)

    compared = 0
    for name, base in sorted(baseline.items()):
        if name in args.skip or name == args.calibrate:
            print(f"  {name:<24} skipped")
            continue
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        if base <= 0:
            print(f"  {name:<24} baseline <= 0; skipped")
            continue
        ratio = current[name] / base / scale
        verdict = "ok" if ratio <= 1.0 + args.threshold else "REGRESSED"
        print(f"  {name:<24} {base:>12.3f} -> {current[name]:>12.3f}  "
              f"({ratio:>5.2f}x)  {verdict}")
        compared += 1
        if verdict != "ok":
            failures.append(f"{name}: {ratio:.2f}x slower than baseline")

    if compared == 0 and not failures:
        print("check_bench: nothing compared", file=sys.stderr)
        sys.exit(2)
    if failures:
        print("\nFAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("bench gate: OK")


if __name__ == "__main__":
    main()
