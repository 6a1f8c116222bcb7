//! Reporting surface of the always-on phase profiler.
//!
//! The accumulators themselves live in `cas_sim::prof` (the kernel
//! crate — the event-queue pop must be attributable, and `cas-metrics`
//! sits above the kernel in the dependency order); this module
//! re-exports them and adds what the reporting layers share: the
//! per-phase wall-time table behind `casgrid --profile` and the
//! `profile` JSON section every bench writes, including the
//! overhead-bound verdict the benches gate on.

pub use cas_sim::prof::*;

/// Calibration rounds the span cost is the median of: one round slowed
/// by a preemption moves the estimate at most to a neighbouring round's
/// reading, and not at all when the other rounds agree.
const CALIBRATION_ROUNDS: usize = 5;

/// The measured-overhead estimate for a profiled section: span cost ×
/// span count against wall time. Conservative — real spans amortise
/// their two counter reads over actual work — which is the right
/// direction for a gate.
#[derive(Debug, Clone, Copy)]
pub struct OverheadEstimate {
    /// Calibrated cost of one open/close span pair, nanoseconds: the
    /// median of five calibration rounds.
    pub span_ns: f64,
    /// Spans closed in the section.
    pub spans: u64,
    /// Estimated profiler seconds (`span_ns × spans`).
    pub est_s: f64,
    /// Estimate as a share of wall time, `[0, 1]`.
    pub share_of_wall: f64,
}

impl OverheadEstimate {
    /// Estimates the profiler's overhead for a section that closed
    /// `totals` spans over `wall_s` seconds, using a fresh calibration.
    pub fn measure(totals: &PhaseTotals, wall_s: f64) -> OverheadEstimate {
        let rounds = [(); CALIBRATION_ROUNDS].map(|()| calibrate_span_ns(100_000));
        Self::from_rounds(rounds, totals, wall_s)
    }

    /// The estimate with the span cost priced as the median of `rounds`
    /// (nanoseconds per span, one calibration each).
    fn from_rounds(
        mut rounds: [f64; CALIBRATION_ROUNDS],
        totals: &PhaseTotals,
        wall_s: f64,
    ) -> OverheadEstimate {
        rounds.sort_by(f64::total_cmp);
        let span_ns = rounds[CALIBRATION_ROUNDS / 2];
        let spans = totals.total_spans();
        let est_s = span_ns * spans as f64 * 1e-9;
        OverheadEstimate {
            span_ns,
            spans,
            est_s,
            share_of_wall: if wall_s > 0.0 { est_s / wall_s } else { 0.0 },
        }
    }
}

/// Renders the per-phase wall-time table `casgrid --profile` prints:
/// one row per phase (declaration order), with occurrence counts, phase
/// seconds, share of profiled time and share of wall time.
pub fn render_profile_table(totals: &PhaseTotals, wall_s: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>12} {:>12} {:>9} {:>9}\n",
        "phase", "count", "seconds", "of-prof", "of-wall"
    ));
    for &phase in &ALL_PHASES {
        let secs = totals.nanos_of(phase) as f64 * 1e-9;
        let of_wall = if wall_s > 0.0 { secs / wall_s } else { 0.0 };
        out.push_str(&format!(
            "{:<16} {:>12} {:>12.3} {:>8.1}% {:>8.1}%\n",
            phase.name(),
            totals.count_of(phase),
            secs,
            totals.share_of(phase) * 100.0,
            of_wall * 100.0
        ));
    }
    let profiled = totals.total_nanos() as f64 * 1e-9;
    out.push_str(&format!(
        "{:<16} {:>12} {:>12.3} {:>8.1}% {:>8.1}%\n",
        "total",
        totals.counts.iter().sum::<u64>(),
        profiled,
        100.0,
        if wall_s > 0.0 {
            profiled / wall_s * 100.0
        } else {
            0.0
        }
    ));
    out
}

/// Renders the `profile` JSON section the benches embed: per-phase
/// counts/seconds/wall-shares, the overhead estimate (over the spans
/// actually closed), and the two gates
/// the caller folds into its acceptance block — `overhead_ok`
/// (estimate ≤ `max_overhead_share` of wall) and `phases_live` (every
/// phase closed at least one span). Returns the JSON object string and
/// the conjunction of both gates.
pub fn render_profile_json(
    totals: &PhaseTotals,
    wall_s: f64,
    max_overhead_share: f64,
) -> (String, bool) {
    let overhead = OverheadEstimate::measure(totals, wall_s);
    let overhead_ok = overhead.share_of_wall <= max_overhead_share;
    let phases_live = ALL_PHASES.iter().all(|&p| totals.count_of(p) > 0);
    let mut s = String::from("{\n      \"phases\": {\n");
    for (i, &phase) in ALL_PHASES.iter().enumerate() {
        let secs = totals.nanos_of(phase) as f64 * 1e-9;
        let of_wall = if wall_s > 0.0 { secs / wall_s } else { 0.0 };
        s.push_str(&format!(
            "        \"{}\": {{ \"count\": {}, \"seconds\": {:.6}, \"share_of_wall\": {:.6} }}{}\n",
            phase.name(),
            totals.count_of(phase),
            secs,
            of_wall,
            if i + 1 < ALL_PHASES.len() { "," } else { "" }
        ));
    }
    s.push_str("      },\n");
    s.push_str(&format!("      \"wall_s\": {wall_s:.6},\n"));
    s.push_str(&format!(
        "      \"overhead\": {{ \"span_ns\": {:.2}, \"spans\": {}, \"est_s\": {:.6}, \"share_of_wall\": {:.6}, \"max_share\": {:.6}, \"ok\": {} }},\n",
        overhead.span_ns, overhead.spans, overhead.est_s, overhead.share_of_wall,
        max_overhead_share, overhead_ok
    ));
    s.push_str(&format!("      \"phases_live\": {phases_live}\n    }}"));
    (s, overhead_ok && phases_live)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_totals() -> PhaseTotals {
        let mut t = PhaseTotals::default();
        for (i, _) in ALL_PHASES.iter().enumerate() {
            t.nanos[i] = (i as u64 + 1) * 1_000_000;
            t.counts[i] = (i as u64 + 1) * 10;
        }
        t
    }

    #[test]
    fn table_has_one_row_per_phase_plus_header_and_total() {
        let table = render_profile_table(&fake_totals(), 1.0);
        assert_eq!(table.lines().count(), N_PHASES + 2);
        for &p in &ALL_PHASES {
            assert!(table.contains(p.name()), "missing {}", p.name());
        }
    }

    #[test]
    fn json_gates_overhead_and_liveness() {
        let totals = fake_totals();
        let (json, ok) = render_profile_json(&totals, 1000.0, 0.02);
        assert!(ok, "tiny span count over long wall must pass");
        assert!(json.contains("\"phases_live\": true"));
        assert!(json.contains("\"stage1_walk\""));
        assert!(json.contains("\"kernel_pop\""));
        // A dead phase flips the liveness gate.
        let mut dead = totals;
        dead.counts[Phase::Churn as usize] = 0;
        let (json, ok) = render_profile_json(&dead, 1000.0, 0.02);
        assert!(!ok);
        assert!(json.contains("\"phases_live\": false"));
        // An absurd overhead bound flips the overhead gate.
        let (_, ok) = render_profile_json(&totals, 1e-12, 0.02);
        assert!(!ok);
    }

    #[test]
    fn one_slow_calibration_round_leaves_the_estimate_unchanged() {
        let totals = fake_totals();
        let steady = OverheadEstimate::from_rounds([41.0; 5], &totals, 2.0);
        for slow in 0..5 {
            let mut rounds = [41.0; 5];
            rounds[slow] = 400.0;
            let est = OverheadEstimate::from_rounds(rounds, &totals, 2.0);
            assert_eq!(est.span_ns, 41.0);
            assert_eq!(est.est_s.to_bits(), steady.est_s.to_bits());
            assert_eq!(est.share_of_wall.to_bits(), steady.share_of_wall.to_bits());
        }
        // Rounds that spread move only to a neighbouring round's reading.
        let mut rounds = [39.0, 40.0, 41.0, 43.0, 45.0];
        assert_eq!(
            OverheadEstimate::from_rounds(rounds, &totals, 2.0).span_ns,
            41.0
        );
        rounds[0] = 400.0;
        assert_eq!(
            OverheadEstimate::from_rounds(rounds, &totals, 2.0).span_ns,
            43.0
        );
    }

    #[test]
    fn json_is_structurally_balanced() {
        let (json, _) = render_profile_json(&fake_totals(), 2.5, 0.02);
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "balanced braces");
        assert!(json.contains("\"reports\": { \"count\": 60,"));
        assert!(json.contains("\"wall_s\": 2.5"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }
}
