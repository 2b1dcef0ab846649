//! `diff_bench` — host-side diff-engine throughput: block scan and
//! write-tracked scan versus the reference word-by-word scan.
//!
//! ```text
//! diff_bench [--seed N] [--iters N] [--json PATH]
//! ```
//!
//! With `--json PATH` the sweep is additionally written as a report
//! (`BENCH_diff.json` in CI).
//!
//! Each case is a twin/current page pair with a controlled dirty
//! structure, built deterministically from `--seed`:
//!
//! * `clean`   — no modified words: the block scan's best case (one
//!   branch per 32 bytes) and the tracked scan's ideal (zero bytes
//!   read).
//! * `sparse`  — 8 scattered single-word runs, the paper's typical
//!   fine-grained write pattern (≤8 dirty runs per page).
//! * `medium`  — 64 scattered short runs.
//! * `dense`   — every other word modified (512 runs), the worst case
//!   for run bookkeeping: the reference scan pays one `Vec` per run.
//! * `full`    — every word modified: pure payload-copy bandwidth.
//!
//! Every case first compares both engines' output with the reference
//! scan and records it as the row's `identical` flag — a
//! wrong-but-fast diff engine fails the `identical` gate whatever its
//! timing.
//!
//! The gates (`gates::table`) fail the run if the block scan is not at
//! least 3× the reference on the sparse case (the CI `perf-smoke`
//! gate), or if any output mismatches. The EXPERIMENTS.md targets are stricter (≥5× sparse,
//! ≥3× dense); CI gates at 3× to stay robust on noisy shared
//! runners.

use std::process::ExitCode;
use std::time::Instant;

use genima::TextTable;
use genima_bench::report::{Cli, Report};
use genima_mem::{
    compute_diff_reference, compute_diff_tracked, DiffScratch, DirtyRanges, Page, PAGE_SIZE, WORD,
};
use genima_obs::Json;

/// Deterministic byte stream (splitmix64) so every run and platform
/// measures the same page contents.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// One benchmark scenario: a twin, the current page derived from it,
/// and the dirty ranges the write path would have recorded.
struct Case {
    name: &'static str,
    twin: Page,
    cur: Page,
    dirty: DirtyRanges,
}

fn build_case(name: &'static str, seed: u64, word_stride: Option<usize>, runs: usize) -> Case {
    let mut rng = Rng(seed);
    let mut twin = Page::zeroed();
    // Non-trivial baseline content so compares exercise real data.
    for w in (0..PAGE_SIZE).step_by(8) {
        twin.write(w, &rng.next().to_le_bytes());
    }
    let mut cur = twin.twin();
    let mut dirty = DirtyRanges::new();
    match word_stride {
        // Periodic pattern: every `stride`-th word flipped.
        Some(stride) => {
            for w in (0..PAGE_SIZE / WORD).step_by(stride) {
                let off = w * WORD;
                let b = (rng.next() as u32).to_le_bytes();
                // Guarantee a difference whatever the rng produced.
                let mut old = [0u8; 4];
                old.copy_from_slice(cur.read(off, 4));
                let new = if b == old {
                    [!b[0], b[1], b[2], b[3]]
                } else {
                    b
                };
                cur.write(off, &new);
                dirty.add(off as u32, WORD as u32);
            }
        }
        // Scattered runs: `runs` short runs spread over the page, at
        // least one clean word apart so run count is exact.
        None => {
            let spacing = PAGE_SIZE / WORD / runs.max(1);
            for r in 0..runs {
                let base_word = r * spacing;
                let off = base_word * WORD;
                let len = WORD * (1 + (rng.next() as usize % 2.min(spacing - 1).max(1)));
                for i in 0..len {
                    let old = cur.read(off + i, 1)[0];
                    cur.write(off + i, &[old ^ 0x5a]);
                }
                dirty.add(off as u32, len as u32);
            }
        }
    }
    Case {
        name,
        twin,
        cur,
        dirty,
    }
}

fn build_cases(seed: u64) -> Vec<Case> {
    let mut cases = vec![build_case("clean", seed, None, 0)];
    cases[0].dirty.clear(); // truly untouched: tracked scan skips it
    cases.push(build_case("sparse", seed ^ 1, None, 8));
    cases.push(build_case("medium", seed ^ 2, None, 64));
    cases.push(build_case("dense", seed ^ 3, Some(2), 0));
    cases.push(build_case("full", seed ^ 4, Some(1), 0));
    cases
}

/// Nanoseconds per call of `f`: the `iters` calls run as five chunks
/// (after a warmup chunk) and the fastest chunk's mean is reported,
/// which shrugs off frequency ramps and scheduler noise on shared CI
/// runners. Results stay live via `black_box`.
fn time_ns(iters: usize, mut f: impl FnMut() -> usize) -> f64 {
    const CHUNKS: usize = 5;
    let per_chunk = (iters / CHUNKS).max(1);
    for _ in 0..per_chunk {
        std::hint::black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..CHUNKS {
        let start = Instant::now();
        for _ in 0..per_chunk {
            std::hint::black_box(f());
        }
        let mean = start.elapsed().as_nanos() as f64 / per_chunk as f64;
        best = best.min(mean);
    }
    best
}

fn main() -> ExitCode {
    let cli = Cli::parse("diff_bench", &["seed", "iters"], None);
    let iters = cli.num("iters", 4000) as usize;
    let mut report = Report::new("diff", cli.seed());
    report.meta.set("iters", Json::u64(iters as u64));
    report.meta.set("page_size", Json::u64(PAGE_SIZE as u64));
    println!(
        "diff engines: {iters} iterations per case, seed {:#x}",
        report.seed
    );

    let mut table = TextTable::new(vec![
        "case",
        "runs",
        "bytes",
        "ref(ns)",
        "block(ns)",
        "tracked(ns)",
        "block-x",
        "tracked-x",
    ]);
    for case in build_cases(report.seed) {
        let reference = compute_diff_reference(&case.twin, &case.cur);
        // Correctness before speed: both engines must be bit-identical
        // to the reference scan on this exact input.
        let mut scratch = DiffScratch::new();
        let identical = scratch.compute(&case.twin, &case.cur) == &reference
            && compute_diff_tracked(&case.twin, &case.cur, &case.dirty) == reference;

        let ref_ns = time_ns(iters, || {
            compute_diff_reference(&case.twin, &case.cur).run_count()
        });
        let block_ns = time_ns(iters, || scratch.compute(&case.twin, &case.cur).run_count());
        let mut tscratch = DiffScratch::new();
        let tracked_ns = time_ns(iters, || {
            tscratch
                .compute_tracked(&case.twin, &case.cur, &case.dirty)
                .run_count()
        });
        let speedup_block = ref_ns / block_ns;
        let speedup_tracked = ref_ns / tracked_ns;

        table.row(vec![
            case.name.to_string(),
            reference.run_count().to_string(),
            reference.bytes().to_string(),
            format!("{ref_ns:.0}"),
            format!("{block_ns:.0}"),
            format!("{tracked_ns:.0}"),
            format!("{speedup_block:.1}"),
            format!("{speedup_tracked:.1}"),
        ]);
        let mut row = Json::obj();
        row.set("case", Json::str(case.name));
        row.set("runs", Json::u64(reference.run_count() as u64));
        row.set("bytes", Json::u64(reference.bytes() as u64));
        row.set("ref_ns", Json::num(ref_ns));
        row.set("block_ns", Json::num(block_ns));
        row.set("tracked_ns", Json::num(tracked_ns));
        row.set("speedup_block", Json::num(speedup_block));
        row.set("speedup_tracked", Json::num(speedup_tracked));
        row.set("identical", Json::Bool(identical));
        report.rows.push(row);
    }
    println!("{table}");
    report.finish(cli.json.as_deref(), 0)
}
