//! The values the paper reports, for side-by-side comparison.
//!
//! Absolute numbers are not expected to match (our substrate is a
//! simulator; the `cas-middleware` crate docs describe it) — what must
//! match is the *shape*: orderings, rough factors, crossovers. The
//! binaries print these references next to the measured values.

/// One reference cell: heuristic column order MCT, HMCT, MP, MSF.
pub type Row4 = [f64; 4];

/// A reference table: metric name → per-heuristic values.
pub struct Reference {
    /// Table caption in the paper.
    pub caption: &'static str,
    /// (metric row, [MCT, HMCT, MP, MSF]).
    pub rows: &'static [(&'static str, Row4)],
}

/// Table 5 — matmul metatask, low rate.
pub const TABLE5: Reference = Reference {
    caption: "Table 5 (paper): matmul, low rate",
    rows: &[
        ("completed", [500.0, 500.0, 500.0, 500.0]),
        ("makespan", [9906.0, 9908.0, 10162.0, 9905.0]),
        ("sumflow", [25922.0, 19934.0, 26383.0, 19702.0]),
        ("maxflow", [230.0, 103.0, 517.0, 97.0]),
        ("maxstretch", [12.8, 5.8, 3.7, 5.3]),
        ("sooner", [f64::NAN, 325.0, 330.0, 325.0]),
    ],
};

/// Table 6 — matmul metatask, high rate (memory crunch).
pub const TABLE6: Reference = Reference {
    caption: "Table 6 (paper): matmul, high rate",
    rows: &[
        ("completed", [495.0, 358.0, 500.0, 500.0]),
        ("makespan", [7880.0, 5600.0, 7648.0, 7626.0]),
        ("sumflow", [89254.0, 25092.0, 34677.0, 31375.0]),
        ("maxflow", [1780.0, 500.0, 720.0, 250.0]),
        ("maxstretch", [99.0, 27.8, 6.3, 11.3]),
        ("sooner", [f64::NAN, 306.0, 418.0, 435.0]),
    ],
};

/// Table 7 — waste-cpu metatasks, low rate (means over the three
/// metatasks; the paper lists all three, we reference their mean).
pub const TABLE7: Reference = Reference {
    caption: "Table 7 (paper): waste-cpu, low rate (mean of 3 metatasks)",
    rows: &[
        ("completed", [500.0, 500.0, 500.0, 500.0]),
        ("makespan", [10055.7, 10050.7, 10107.0, 10051.0]),
        ("sumflow", [22843.7, 18555.3, 25117.3, 18587.0]),
        ("maxflow", [161.7, 104.7, 278.0, 112.0]),
        ("maxstretch", [3.7, 2.5, 1.9, 2.6]),
        ("sooner", [f64::NAN, 327.3, 325.7, 320.0]),
    ],
};

/// Table 8 — waste-cpu metatasks, high rate.
pub const TABLE8: Reference = Reference {
    caption: "Table 8 (paper): waste-cpu, high rate (mean of 3 metatasks)",
    rows: &[
        ("completed", [500.0, 500.0, 500.0, 500.0]),
        ("makespan", [7649.7, 7615.3, 7660.7, 7614.0]),
        ("sumflow", [54302.3, 37156.3, 31643.7, 31456.7]),
        ("maxflow", [305.7, 231.0, 322.7, 192.7]),
        ("maxstretch", [6.9, 4.8, 3.3, 3.9]),
        ("sooner", [f64::NAN, 383.0, 409.7, 412.3]),
    ],
};

/// Table 1 reference rows: (task, arrival, size, real, simulated, diff,
/// pct_err) for the two validation metatasks.
pub const TABLE1_METATASK_A: &[(u64, f64, u32, f64, f64)] = &[
    // (task, arrival, matrix size, real completion, simulated completion)
    (1, 33.00, 1500, 80.79, 79.99),
    (2, 59.92, 1200, 92.08, 93.19),
    (3, 73.92, 1800, 142.79, 142.50),
];

/// The second, nine-task validation metatask of Table 1.
pub const TABLE1_METATASK_B: &[(u64, f64, u32, f64, f64)] = &[
    (1, 29.41, 1500, 76.69, 76.29),
    (2, 56.43, 1200, 89.15, 89.50),
    (4, 96.41, 1200, 136.97, 139.40),
    (6, 140.41, 1200, 204.84, 204.85),
    (3, 70.42, 1800, 210.61, 195.74),
    (5, 121.43, 1500, 235.38, 232.92),
    (8, 181.45, 1200, 248.02, 248.56),
    (9, 206.41, 1200, 259.91, 261.63),
    (7, 166.42, 1800, 289.08, 288.91),
];

/// The paper's headline validation number: mean error under 3 %.
pub const TABLE1_MEAN_ERROR_PCT: f64 = 3.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_are_consistent() {
        for t in [&TABLE5, &TABLE6, &TABLE7, &TABLE8] {
            assert_eq!(t.rows.len(), 6, "{}", t.caption);
            // sumflow of HTM heuristics beats MCT in every reference table
            // except MP at low rate — the claim our reproduction must echo.
            let sumflow = t.rows.iter().find(|(m, _)| *m == "sumflow").unwrap().1;
            assert!(sumflow[3] < sumflow[0], "MSF < MCT in {}", t.caption);
        }
    }

    #[test]
    fn table1_durations_positive() {
        for &(_, arrival, _, real, sim) in TABLE1_METATASK_A.iter().chain(TABLE1_METATASK_B) {
            assert!(real > arrival);
            assert!(sim > arrival);
        }
    }

    #[test]
    fn table1_paper_mean_error_below_3pct() {
        // Recompute the paper's own claim from its table: mean of
        // 100·|real−sim|/(real−arrival) stays under 3 %.
        let rows: Vec<f64> = TABLE1_METATASK_A
            .iter()
            .chain(TABLE1_METATASK_B)
            .map(|&(_, a, _, real, sim)| 100.0 * (real - sim).abs() / (real - a))
            .collect();
        let mean = rows.iter().sum::<f64>() / rows.len() as f64;
        assert!(mean < TABLE1_MEAN_ERROR_PCT, "paper mean = {mean}");
    }
}
