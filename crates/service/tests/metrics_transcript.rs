//! Golden-transcript test for `.metrics`.
//!
//! Drives one [`Shell`] through a load → query → update exchange with
//! telemetry forced on, then compares the *complete* `.stats`, `.metrics`,
//! and `.metrics prom` transcripts — every line, in order — against a
//! golden expectation.  Counts and durations vary run to run, so every
//! numeric value (optionally carrying a time unit) is masked as `<v>` and
//! runs of spaces collapse to one; the *structure* — which counters,
//! phases, histogram series, gauges, and slow-query entries appear, and in
//! what order — must match exactly.
//!
//! This lives in its own integration-test binary (one `#[test]`) because
//! the telemetry registry is process-global: tests of another binary
//! running in the same process could race the mode flip and inject counts.

use pcs_service::Shell;
use pcs_telemetry::TelemetryMode;

/// Masks every maximal digit run (with optional interior dots and an
/// optional trailing time unit) as `<v>`, then collapses space runs, so
/// metric values and durations compare deterministically.
fn mask_values(line: &str) -> String {
    let chars: Vec<char> = line.chars().collect();
    let mut masked = String::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_digit() {
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                i += 1;
            }
            for unit in ["ns", "µs", "us", "ms", "s"] {
                let unit_chars: Vec<char> = unit.chars().collect();
                if chars[i..].starts_with(&unit_chars[..])
                    && !chars
                        .get(i + unit_chars.len())
                        .is_some_and(|c| c.is_alphanumeric())
                {
                    i += unit_chars.len();
                    break;
                }
            }
            masked.push_str("<v>");
        } else {
            masked.push(chars[i]);
            i += 1;
        }
    }
    let mut out = String::new();
    let mut last_space = false;
    for c in masked.chars() {
        if c == ' ' {
            if !last_space {
                out.push(c);
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out
}

/// Runs `script` through `shell`, echoing each input line verbatim as
/// `>>> line` and collecting every value-masked response line.
fn transcript(shell: &mut Shell, script: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for line in script {
        out.push(format!(">>> {line}"));
        for response in shell.execute(line).lines {
            out.push(mask_values(&response));
        }
    }
    out
}

#[test]
fn golden_metrics_transcript() {
    pcs_telemetry::set_mode(TelemetryMode::On);
    pcs_telemetry::reset();
    // Threshold zero: the one executed query below deterministically lands
    // in the slow-query log.
    pcs_telemetry::set_slow_query_threshold_nanos(0);

    let mut shell = Shell::new();
    let actual = transcript(
        &mut shell,
        &[
            ".metrics csv",
            ".load",
            "r1: p(X) :- b(X), X >= 0.",
            "+b(1).",
            "?- p(X).",
            ".end",
            "?- p(X).",
            "+b(2).",
            ".stats",
            ".metrics",
            ".metrics prom",
        ],
    );
    let expected = vec![
        ">>> .metrics csv",
        "error: unknown .metrics mode `csv`; expected no argument (table) or `prom`",
        ">>> .load",
        "loading program; finish with .end (`+fact.` lines feed the base database)",
        ">>> r1: p(X) :- b(X), X >= 0.",
        ">>> +b(1).",
        ">>> ?- p(X).",
        ">>> .end",
        "ok: materialized <v> facts (<v> constraint facts) across <v> relations in <v>; \
         strategy optimal (pred,qrp,mg); answers in `p_f`",
        ">>> ?- p(X).",
        "answers: <v> (predicate p_f, epoch <v>)",
        " p_f(<v>)",
        ">>> +b(2).",
        "ok: epoch <v>; +<v> inserted, +<v> new facts (<v> derivations over <v> iterations, \
         Fixpoint, <v>)",
        ">>> .stats",
        "strategy: optimal (pred,qrp,mg)",
        "epoch: <v>",
        "facts: <v> total, <v> constraint facts, <v> relations",
        "termination: Fixpoint",
        "query predicate: p_f",
        "update queue depth: <v>",
        "epoch lag: <v>",
        " b: <v>",
        " m_p_f: <v>",
        " p_f: <v>",
        ">>> .metrics",
        "telemetry: on",
        "counters:",
        " index_probes <v>",
        " probe_hits <v>",
        " probe_misses <v>",
        " existence_shortcuts <v>",
        " subsumption_checks <v>",
        " fm_sat_calls <v>",
        " plans_compiled <v>",
        " queries <v>",
        " updates <v>",
        " coalesced_updates <v>",
        " epoch_clones <v>",
        " slow_queries <v>",
        "phases:",
        " analyze count=<v> total=<v>",
        " rewrite count=<v> total=<v>",
        " plan_compile count=<v> total=<v>",
        " fixpoint count=<v> total=<v>",
        " resume count=<v> total=<v>",
        " retract count=<v> total=<v>",
        "histograms:",
        " query_latency count=<v> sum=<v> p<v>=<v> p<v>=<v> p<v>=<v>",
        " <=<v> <v>",
        " update_latency count=<v> sum=<v> p<v>=<v> p<v>=<v> p<v>=<v>",
        " <=<v> <v>",
        "gauges:",
        " update_queue_depth <v>",
        " epoch_lag <v>",
        "slow queries (threshold <v>):",
        " <v> ?- p_f(X).",
        ">>> .metrics prom",
        "# TYPE pcs_index_probes_total counter",
        "pcs_index_probes_total <v>",
        "# TYPE pcs_probe_hits_total counter",
        "pcs_probe_hits_total <v>",
        "# TYPE pcs_probe_misses_total counter",
        "pcs_probe_misses_total <v>",
        "# TYPE pcs_existence_shortcuts_total counter",
        "pcs_existence_shortcuts_total <v>",
        "# TYPE pcs_subsumption_checks_total counter",
        "pcs_subsumption_checks_total <v>",
        "# TYPE pcs_fm_sat_calls_total counter",
        "pcs_fm_sat_calls_total <v>",
        "# TYPE pcs_plans_compiled_total counter",
        "pcs_plans_compiled_total <v>",
        "# TYPE pcs_queries_total counter",
        "pcs_queries_total <v>",
        "# TYPE pcs_updates_total counter",
        "pcs_updates_total <v>",
        "# TYPE pcs_coalesced_updates_total counter",
        "pcs_coalesced_updates_total <v>",
        "# TYPE pcs_epoch_clones_total counter",
        "pcs_epoch_clones_total <v>",
        "# TYPE pcs_slow_queries_total counter",
        "pcs_slow_queries_total <v>",
        "# TYPE pcs_phase_seconds_total counter",
        "pcs_phase_seconds_total{phase=\"analyze\"} <v>",
        "pcs_phase_spans_total{phase=\"analyze\"} <v>",
        "pcs_phase_seconds_total{phase=\"rewrite\"} <v>",
        "pcs_phase_spans_total{phase=\"rewrite\"} <v>",
        "pcs_phase_seconds_total{phase=\"plan_compile\"} <v>",
        "pcs_phase_spans_total{phase=\"plan_compile\"} <v>",
        "pcs_phase_seconds_total{phase=\"fixpoint\"} <v>",
        "pcs_phase_spans_total{phase=\"fixpoint\"} <v>",
        "pcs_phase_seconds_total{phase=\"resume\"} <v>",
        "pcs_phase_spans_total{phase=\"resume\"} <v>",
        "pcs_phase_seconds_total{phase=\"retract\"} <v>",
        "pcs_phase_spans_total{phase=\"retract\"} <v>",
        "# TYPE pcs_query_latency_seconds histogram",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_query_latency_seconds_bucket{le=\"+Inf\"} <v>",
        "pcs_query_latency_seconds_sum <v>",
        "pcs_query_latency_seconds_count <v>",
        "# TYPE pcs_update_latency_seconds histogram",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"<v>\"} <v>",
        "pcs_update_latency_seconds_bucket{le=\"+Inf\"} <v>",
        "pcs_update_latency_seconds_sum <v>",
        "pcs_update_latency_seconds_count <v>",
        "# TYPE pcs_update_queue_depth gauge",
        "pcs_update_queue_depth <v>",
        "# TYPE pcs_epoch_lag gauge",
        "pcs_epoch_lag <v>",
    ];
    pcs_telemetry::reset();
    pcs_telemetry::set_mode(TelemetryMode::Off);
    assert_eq!(actual, expected, "transcript diverged from the golden copy");
}

#[test]
fn value_masking_touches_only_values() {
    assert_eq!(mask_values("  queries               3"), " queries <v>");
    assert_eq!(
        mask_values("  analyze               count=2 total=1.2ms"),
        " analyze count=<v> total=<v>"
    );
    assert_eq!(mask_values("    <=10.0us     1"), " <=<v> <v>");
    assert_eq!(
        mask_values("pcs_query_latency_seconds_bucket{le=\"0.00001\"} 1"),
        "pcs_query_latency_seconds_bucket{le=\"<v>\"} <v>"
    );
    assert_eq!(mask_values("telemetry: on"), "telemetry: on");
    assert_eq!(
        mask_values("slow queries (threshold 500.000ms):"),
        "slow queries (threshold <v>):"
    );
}
