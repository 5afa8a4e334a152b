//! Host facts and calibration recorded next to every result, so that
//! efficiency stays comparable across hosts.

use std::time::Instant;

use orpheus_gemm::MicroKernel;

/// The host calibration block.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub gemm_dispatch: &'static str,
    /// Peak GFLOP/s of the dispatched micro-kernel on a cache-resident tile.
    pub peak_gflops: f64,
}

impl Host {
    pub fn calibrate() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            gemm_dispatch: orpheus_gemm::dispatch_name(),
            peak_gflops: peak_gflops(orpheus_gemm::active_kernel()),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Upper bounds on the register tile, used only to size the calibration
/// buffers: the kernel's real tile is discovered, not assumed.
const MAX_MR: usize = 8;
const MAX_NR: usize = 32;
/// Panel depth: `kc·(MR + NR)` floats stay well inside L1.
const KC: usize = 128;

/// The register tile `(MR, NR)` a micro-kernel writes, found by running one
/// rank-1 update of ones into a zeroed oversized tile.
fn tile_shape(kernel: &dyn MicroKernel) -> (usize, usize) {
    let mut c = vec![0.0f32; MAX_MR * MAX_NR];
    kernel.tile_full(&[1.0; MAX_MR], &[1.0; MAX_NR], 1, &mut c, MAX_NR, 0, 0);
    let rows = c.chunks(MAX_NR).filter(|r| r[0] != 0.0).count();
    let cols = c[..MAX_NR].iter().filter(|&&v| v != 0.0).count();
    (rows, cols)
}

/// Peak GFLOP/s: best of several rounds of back-to-back full tiles over
/// L1-resident panels.
fn peak_gflops(kernel: &dyn MicroKernel) -> f64 {
    let (mr, nr) = tile_shape(kernel);
    let a = vec![1e-3f32; KC * MAX_MR];
    let b = vec![1e-3f32; KC * MAX_NR];
    let mut c = vec![0.0f32; MAX_MR * MAX_NR];
    let calls = 20_000;
    let flops = 2.0 * (KC * mr * nr) as f64 * calls as f64;
    let mut best = 0.0f64;
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..calls {
            kernel.tile_full(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                KC,
                &mut c,
                MAX_NR,
                0,
                0,
            );
        }
        std::hint::black_box(&c);
        best = best.max(flops / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit being measured, when the working directory is a git checkout.
pub fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_the_scalar_tile() {
        let (mr, nr) = tile_shape(orpheus_gemm::scalar_kernel());
        assert!((1..=MAX_MR).contains(&mr) && (1..=MAX_NR).contains(&nr));
        assert_eq!(tile_shape(orpheus_gemm::active_kernel()), (mr, nr));
    }
}
