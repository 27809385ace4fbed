//! Cold path: what one plan-cache miss costs, §3.5 step by step, against
//! the first-touch page faults no builder can avoid.
//!
//! Prints per-phase minima over N builds of the `cold_plans` geometry
//! (seconds, ns per nonzero written), each build's minor page faults
//! (`/proc/self/stat`: whether a build faults in fresh pages or reuses
//! freed ones, EXPERIMENTS.md C4), the bytes the plan streams per solve
//! iteration and the bytes it holds resident (a layout that shares its
//! CSR's value array counts it once), the seconds to first-touch as many
//! fresh zeroed bytes as the plan streams — so "build − faults" is
//! printed, not inferred — the seconds of `validate_plan` and, below it,
//! of each check of its sweep alone, and the most stages any partition of each
//! buffered layout takes. Panics if the plan fails a check or the phases
//! exceed the total, if the resident bytes are not the streamed bytes
//! less both layouts' values (at the default buffer every partition is
//! one stage, so `A`'s layout shares `A`'s values as `Aᵀ`'s shares
//! `Aᵀ`'s), or if a build after the first faults more than a tenth of the
//! first build's pages: each rebuild fills the arrays the plan before it
//! gave back (DESIGN.md "Plan storage").
//!
//! ```text
//! cargo run --release -p xct-bench --bin coldpath [--smoke]
//! ```

use memxct::{plan_checker, try_preprocess, validate_plan, Config};
use std::hint::black_box;
use std::time::Instant;
use xct_check::Report;
use xct_geometry::{Grid, ScanGeometry};
use xct_sparse::{BufferedCsr, CsrMatrix};

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// This process's minor page faults so far: field 10 of
/// `/proc/self/stat`, 0 where there is no procfs.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 3 on follow the parenthesised command name.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let minflt = after_name.split_whitespace().nth(7);
    minflt.and_then(|f| f.parse().ok()).unwrap_or(0)
}

/// Bytes of `m`'s values that `b` holds through `m`'s own array.
fn shared_value_bytes(b: &BufferedCsr, m: &CsrMatrix) -> u64 {
    let shared = b.entry_val().as_ptr() == m.values().as_ptr();
    if shared {
        4 * m.nnz() as u64
    } else {
        0
    }
}

/// The most stages any partition of `b` takes.
fn max_stages(b: &BufferedCsr) -> usize {
    let stages = (0..b.num_partitions()).map(|p| b.stages_of_partition(p));
    stages.max().unwrap_or(0)
}

/// Least seconds of `n` runs of `f`.
fn best(n: usize, f: impl Fn()) -> f64 {
    (0..n).map(|_| timed(&f).0).fold(f64::INFINITY, f64::min)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (m, n, builds) = if smoke { (90, 64, 2) } else { (180, 128, 7) };
    let build = || try_preprocess(Grid::new(n), ScanGeometry::new(m, n), &Config::default());
    let (mut total, mut phases) = (f64::INFINITY, [f64::INFINITY; 4]);
    let (mut kept, mut build_faults) = (None, Vec::new());
    for _ in 0..builds {
        drop(kept.take()); // a miss builds into memory the last plan gave back
        let before = minor_faults();
        let (wall, ops) = timed(build);
        build_faults.push(minor_faults() - before);
        let ops = ops.expect("the default config is valid");
        let (t, sum) = (ops.timings, ops.timings.total());
        assert!(sum <= wall, "the phases sum to {sum} s of a {wall} s build");
        total = total.min(wall);
        let steps = [t.ordering_s, t.tracing_s, t.transpose_s, t.buffers_s];
        phases = std::array::from_fn(|i| phases[i].min(steps[i]));
        kept = Some(ops);
    }
    // Where procfs is missing every count reads 0, and there is no gate.
    for (i, &faults) in build_faults.iter().enumerate().skip(1) {
        assert!(
            10 * faults <= build_faults[0],
            "build {i} faulted {faults} pages, more than a tenth of the first build's \
             {}: the rebuild did not recycle the last plan's arrays",
            build_faults[0]
        );
    }
    let ops = kept.expect("at least one build");
    let [a_buf, at_buf] = [&ops.a_buf, &ops.at_buf].map(|b| b.as_ref().expect("built by default"));
    // Index + value per nonzero of A, Aᵀ and both layouts, plus the stage
    // maps: all of the plan but its row pointers and ordering tables.
    let bytes = 2 * ops.a.regular_bytes() + a_buf.regular_bytes() + at_buf.regular_bytes();
    let resident = bytes - shared_value_bytes(a_buf, &ops.a) - shared_value_bytes(at_buf, &ops.at);
    // Aᵀ's rows ascend, so its layout shares Aᵀ's values; A's traced rows
    // do not, but a one-stage partition stores them in A's order anyway.
    let values = 4 * (ops.a.nnz() + ops.at.nnz()) as u64;
    assert_eq!(resident, bytes - values, "each matrix's values held once");
    // One write per 4 KiB page: the kernel zero-fills each on first touch.
    let faults = best(builds, || {
        let mut fresh = vec![0u8; bytes as usize];
        fresh.iter_mut().step_by(4096).for_each(|b| *b = 1);
        black_box(fresh);
    });

    let (nnz, mb) = (ops.a.nnz(), bytes as f64 / 1e6);
    println!("cold path, {m}x{n}: {nnz} nnz, {mb:.1} MB streamed, min of {builds} builds");
    println!(
        "plan bytes: {bytes} streamed, {resident} resident ({:.1} MB)",
        resident as f64 / 1e6
    );
    println!("minor faults per build: {build_faults:?}");
    let [a_stages, at_stages] = [a_buf, at_buf].map(max_stages);
    println!("most stages a partition: {a_stages} (A), {at_stages} (At)");
    let row = |name: &str, s: f64, written: usize| match written {
        0 => println!("{name:<28} {s:>8.4}"),
        w => println!("{name:<28} {s:>8.4} {:>7.2} ns/nnz", s * 1e9 / w as f64),
    };
    // Nonzeroes each phase writes: none; A; Aᵀ; both buffered layouts.
    let names = ["1 ordering", "2 tracing", "3 transpose", "4 buffers"];
    for ((name, s), written) in names.iter().zip(phases).zip([0, nnz, nnz, 2 * nnz]) {
        row(name, s, written);
    }
    row("build", total, 0);
    let per_page = faults * 1e6 / (bytes as f64 / 4096.0);
    row(&format!("first touch ({per_page:.2} us/page)"), faults, 0);
    row("build - faults", total - faults, 0);

    // The sweep, then each of its checks alone, on a plan the earlier
    // runs left in whatever cache holds it.
    row(
        "validate_plan",
        best(builds, || drop(validate_plan(&ops))),
        nnz,
    );
    let checker = plan_checker(&ops);
    for (check, name) in checker.checks().zip(checker.names()) {
        let s = best(builds, || check.run(&mut Report::new()));
        row(&format!("  {name}"), s, nnz);
    }
    let report = validate_plan(&ops);
    assert!(report.is_ok(), "the plan fails validate_plan: {report:?}");
}
