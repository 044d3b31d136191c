//! The shared measurement loop: repeated set-up, timed passes, and the
//! process-level readings every workload reports.

use crate::metrics::Tally;
use crate::stats::median;
use std::time::{Duration, Instant};

/// Each block of timed passes holds at least this many, so its 90th
/// percentile has ten or more samples beyond it.
pub const MIN_PASSES: usize = 100;

/// Timed passes run in this many consecutive blocks. Each timing
/// metric is the median over blocks of the block's own statistic, so a
/// minority of blocks slowed by other load on the machine does not
/// move it.
pub const BLOCKS: usize = 5;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Untimed passes run between set-up and the first timed pass. On a
/// 2-core x86-64 VM, the first second or so after set-up sometimes ran
/// ~50 % slower than the rest of the run.
pub const SETTLE: Duration = Duration::from_secs(2);

/// Runs `pass` untimed for [`SETTLE`], letting the machine reach the
/// steady state the timed passes measure.
pub fn settle<T>(mut pass: impl FnMut() -> T) {
    let started = Instant::now();
    while started.elapsed() < SETTLE {
        std::hint::black_box(pass());
    }
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last state with
/// the median set-up time in seconds.
///
/// # Errors
///
/// The first set-up error.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        state = Some(setup()?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up ran"), median(&seconds)))
}

/// Times one pass, which returns the digest of its output. The output
/// must digest to `expected`; a pass that errors or digests otherwise
/// counts as a failed operation. Returns the wall time in ms, and
/// whether the hypervisor stole CPU time from the machine meanwhile.
pub fn timed_pass(
    expected: u64,
    tally: &mut Tally,
    pass: impl FnOnce() -> Result<u64, String>,
) -> (f64, bool) {
    let stolen = stolen_ticks();
    let begin = Instant::now();
    let outcome = std::hint::black_box(pass());
    let ms = begin.elapsed().as_secs_f64() * 1e3;
    let disturbed = stolen_ticks() != stolen;
    match outcome {
        Ok(digest) => tally.check(digest == expected, "pass output equals the reference output"),
        Err(error) => tally.check(false, &format!("pass failed: {error}")),
    }
    (ms, disturbed)
}

/// Times `pass` until `budget` has elapsed and at least `min_passes`
/// passes ran undisturbed; see [`timed_pass`]. Returns the undisturbed
/// passes' wall times in ms.
///
/// On a virtual machine the hypervisor may stop a CPU for milliseconds
/// at a time to run other guests; such a pass measures the host, not
/// the program. If too few passes run undisturbed by one and a half
/// times the budget, every pass counts instead, so a run on a busy host
/// still ends in bounded time.
pub fn timed_passes(
    budget: Duration,
    min_passes: usize,
    expected: u64,
    tally: &mut Tally,
    mut pass: impl FnMut() -> Result<u64, String>,
) -> Vec<f64> {
    let started = Instant::now();
    let mut undisturbed = Vec::new();
    let mut every = Vec::new();
    loop {
        let elapsed = started.elapsed();
        if undisturbed.len() >= min_passes && elapsed >= budget {
            return undisturbed;
        }
        if every.len() >= min_passes && elapsed >= budget * 3 / 2 {
            tally.disturbed -= (every.len() - undisturbed.len()) as u64;
            return every;
        }
        let (ms, disturbed) = timed_pass(expected, tally, &mut pass);
        every.push(ms);
        if disturbed {
            tally.disturbed += 1;
        } else {
            undisturbed.push(ms);
        }
    }
}

/// CPU time the hypervisor has stolen from this machine's CPUs so far,
/// in clock ticks (the `steal` column of `/proc/stat`); 0 where the
/// kernel does not report it.
fn stolen_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Runs [`BLOCKS`] blocks of [`timed_passes`], each for an equal share
/// of `budget` and at least [`MIN_PASSES`] passes. Returns each block's
/// per-pass wall times in ms.
pub fn timed_blocks(
    budget: Duration,
    expected: u64,
    tally: &mut Tally,
    mut pass: impl FnMut() -> Result<u64, String>,
) -> Vec<Vec<f64>> {
    (0..BLOCKS)
        .map(|_| timed_passes(budget / BLOCKS as u32, MIN_PASSES, expected, tally, &mut pass))
        .collect()
}

/// The median over blocks of `stat` applied to each block's pass times.
pub fn block_median(blocks: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let stats: Vec<f64> = blocks.iter().map(|block| stat(block)).collect();
    median(&stats)
}

/// Work per second over a block of pass times (ms), given the work one
/// pass does.
pub fn per_second(work_per_pass: f64, block: &[f64]) -> f64 {
    work_per_pass * block.len() as f64 / (block.iter().sum::<f64>() / 1e3)
}

/// 64-bit FNV-1a digest of a byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The process's peak resident set (`VmHWM`) in MB (2^20 bytes).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|error| format!("/proc/self/status: {error}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn timed_passes_runs_the_minimum_and_counts_mismatches() {
        let mut tally = Tally::default();
        let mut calls = 0u64;
        let samples = timed_passes(Duration::ZERO, 5, 1, &mut tally, || {
            calls += 1;
            if calls == 3 {
                Err("boom".to_string())
            } else {
                Ok(if calls == 4 { 2 } else { 1 })
            }
        });
        assert_eq!(samples.len(), 5);
        assert_eq!((tally.attempted, tally.failed), (5, 2));
    }

    #[test]
    fn block_statistics_take_the_median_block() {
        let blocks = vec![vec![10.0, 20.0], vec![1.0, 1.0], vec![4.0, 6.0]];
        assert_eq!(block_median(&blocks, |block| block.iter().sum()), 10.0);
        // Two passes of 250 ms each: 4 passes per second.
        assert_eq!(per_second(3.0, &[250.0, 250.0]), 12.0);
        let mut tally = Tally::default();
        let blocks = timed_blocks(Duration::ZERO, 1, &mut tally, || Ok(1));
        assert_eq!(blocks.len(), BLOCKS);
        assert!(blocks.iter().all(|block| block.len() == MIN_PASSES));
    }
}
