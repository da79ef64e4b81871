//! Small helpers: order statistics, the result stamp, process peak RSS.

use std::path::Path;
use std::time::Instant;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `xs` (mean of the middle two for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p ∈ (0, 100]` of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The stamp every record carries, as JSON fields (no braces): source
/// revision, toolchain, core count.
pub fn stamp_fields() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"rev\":\"{}\",\"src_digest\":\"{}\",\"rustc\":\"{}\",\"nproc\":{nproc}",
        git_rev(),
        source_digest(),
        env!("PERFBENCH_RUSTC"),
    )
}

/// `HEAD` of the checkout when it is a git repository, else `"unknown"`.
/// `--git-dir` keeps git from searching parent directories.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// FNV-1a over the paths and bytes of the sources the benchmark builds
/// (`crates/`, `Cargo.lock`, `perfbench/src/`), so a record names the code it
/// measured even in a checkout without git metadata.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut any = false;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            any = true;
            eat(f.to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    if any {
        format!("{h:016x}")
    } else {
        "unknown".to_string()
    }
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => {
                if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                    out.push(p);
                }
            }
            _ => {}
        }
    }
}

/// Sorted edge list of a spanner, for exact equality checks.
pub fn sorted_edges(s: &nas_graph::EdgeSet) -> Vec<(usize, usize)> {
    let mut v: Vec<_> = s.iter().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
