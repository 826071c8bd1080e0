//! Shared reporting helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index); EXPERIMENTS.md records the outputs
//! against the published values.

#![forbid(unsafe_code)]

/// Render a fixed-width table: header row + data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line: String = header.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}  ")).collect();
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
    for row in rows {
        let line: String = row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}  ")).collect();
        println!("{line}");
    }
}

/// ASCII heatmap of a row-major field (`nx` fastest), normalized to its own
/// min/max — enough to see the basin shapes of Fig 3.2 in a terminal.
pub fn ascii_heatmap(title: &str, field: &[f64], nx: usize, max_cols: usize) {
    let ny = field.len() / nx;
    println!("\n-- {title} ({nx} x {ny}) --");
    let lo = field.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = field.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let ramp: &[u8] = b" .:-=+*#%@";
    let step = nx.div_ceil(max_cols).max(1);
    for j in (0..ny).step_by(step) {
        let mut line = String::new();
        for i in (0..nx).step_by(step) {
            let v = field[i + nx * j];
            let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
            let c = ramp[((t * (ramp.len() - 1) as f64).round() as usize).min(ramp.len() - 1)];
            line.push(c as char);
        }
        println!("  {line}");
    }
    println!("  [{lo:.3e} .. {hi:.3e}]");
}

/// Relative L2 error between two fields.
pub fn rel_l2(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in a.iter().zip(b) {
        num += (x - y) * (x - y);
        den += y * y;
    }
    (num / den.max(1e-300)).sqrt()
}

/// `QUAKE_SCALE=full` runs paper-sized (hours); default is `small`
/// (minutes, same shapes).
pub fn full_scale() -> bool {
    std::env::var("QUAKE_SCALE").map(|v| v == "full").unwrap_or(false)
}

/// The `"lts"` member of a `BENCH_step_throughput.json` document, verbatim
/// from the start of its line to its closing brace. A `bench_step` run
/// without `--lts` measures no LTS leg, so it carries the block of the file
/// it replaces over unchanged instead of dropping it.
pub fn lts_block(json: &str) -> Option<&str> {
    let key = json.find("\"lts\":")?;
    let start = json[..key].rfind('\n').map_or(0, |i| i + 1);
    let open = key + json[key..].find('{')?;
    let mut depth = 0usize;
    for (i, ch) in json[open..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..open + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Close a `BENCH_step_throughput.json` body (every member up to the last,
/// unterminated) with the optional `"lts"` member.
pub fn finish_step_json(mut body: String, lts: Option<&str>) -> String {
    if let Some(l) = lts {
        body.push_str(",\n");
        body.push_str(l);
    }
    body.push_str("\n}\n");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run without `--lts` rewrites the throughput file around the
    /// committed `lts` block: the carried block reproduces the document.
    #[test]
    fn lts_block_carries_over_unchanged() {
        let body = "{\n  \"n_steps\": 20,\n  \"speedup_fused_vs_baseline\": 4.111".to_string();
        let lts = "  \"lts\": {\n    \"level_elements\": { \"4\": 3840, \"5\": 1984 },\n    \
                   \"grouped\": { \"base_steps_per_sec\": 2171.164 },\n    \
                   \"speedup_lts_vs_fused\": 2.088\n  }";
        let committed = finish_step_json(body.clone(), Some(lts));
        assert_eq!(lts_block(&committed), Some(lts));
        let rewritten = finish_step_json(body.clone(), lts_block(&committed));
        assert_eq!(rewritten, committed);
        // Nothing to carry from a file that has no LTS leg.
        let plain = finish_step_json(body, None);
        assert_eq!(lts_block(&plain), None);
        assert_eq!(lts_block("{ \"lts\": { \"cycle\": 4 "), None, "unterminated block");
    }

    #[test]
    fn rel_l2_basic() {
        assert_eq!(rel_l2(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let e = rel_l2(&[2.0, 0.0], &[1.0, 0.0]);
        assert!((e - 1.0).abs() < 1e-12);
    }
}
