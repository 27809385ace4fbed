//! Plan storage outlives the plan: a dropped plan's large arrays feed the
//! next build (DESIGN.md "Plan storage"). A build into recycled arrays
//! must be, array for array and bit for bit, the build into fresh ones.

use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

use memxct::{try_preprocess, Config, Kernel, Operators};
use xct_geometry::{Grid, ScanGeometry};
use xct_sparse::{BufferedCsr, CsrMatrix};

/// The tests of this file share the process's one spare; the first one
/// reads where its arrays land, so they take turns.
static TURNS: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURNS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Two geometries whose plans' large arrays (≈ 780 k and ≈ 370 k
/// nonzeroes) all pass through the spare: `(projections, channels)` of
/// a `channels`² image.
const G1: (u32, u32) = (96, 80);
const G2: (u32, u32) = (72, 64);

fn build((projections, channels): (u32, u32), config: &Config) -> Operators {
    let scan = ScanGeometry::new(projections, channels);
    try_preprocess(Grid::new(channels), scan, config).expect("a valid plan")
}

/// The configurations whose arrays differ in kind: the default buffered
/// plan (both layouts share their CSR's values), the CSR-only plan, and a
/// buffer small enough that `A`'s partitions split, so its layout owns
/// its values.
fn configs() -> [Config; 3] {
    [
        Config::default(),
        Config {
            kernel: Kernel::Serial,
            ..Config::default()
        },
        Config {
            buffsize: 512,
            ..Config::default()
        },
    ]
}

/// Every array of a CSR matrix, values as bits.
#[derive(PartialEq)]
struct Csr {
    rowptr: Vec<usize>,
    colind: Vec<u32>,
    values: Vec<u32>,
    forward: Vec<u32>,
}

impl Csr {
    fn of(m: &CsrMatrix) -> Self {
        Csr {
            rowptr: m.rowptr().to_vec(),
            colind: m.colind().to_vec(),
            values: bits(m.values()),
            forward: bits(&xct_sparse::spmv(m, &probe(m.ncols()))),
        }
    }
}

/// Every array of a buffered layout, values as bits, and its runs in
/// the order the kernel walks them.
#[derive(PartialEq)]
struct Layout {
    partdispl: Vec<u32>,
    stagedispl: Vec<usize>,
    map: Vec<u32>,
    displ: Vec<usize>,
    ind: Vec<u16>,
    val: Vec<u32>,
    row_major: bool,
    runs: Vec<Range<usize>>,
    forward: Vec<u32>,
}

impl Layout {
    fn of(b: &BufferedCsr) -> Self {
        let mut runs = Vec::new();
        for p in 0..b.num_partitions() {
            let rows = p * b.partsize()..b.nrows().min((p + 1) * b.partsize());
            let stages = b.partdispl()[p] as usize..b.partdispl()[p + 1] as usize;
            for stage in stages {
                runs.extend(rows.clone().map(|row| b.run(stage, row)));
            }
        }
        Layout {
            partdispl: b.partdispl().to_vec(),
            stagedispl: b.stagedispl().to_vec(),
            map: b.stage_map().to_vec(),
            displ: b.entry_displ().to_vec(),
            ind: b.entry_ind().to_vec(),
            val: bits(b.entry_val()),
            row_major: b.row_major_runs(),
            runs,
            forward: bits(&b.spmv(&probe(b.ncols()))),
        }
    }
}

/// A plan's arrays: `A`, `Aᵀ` and the layouts its kernel holds.
#[derive(PartialEq)]
struct Arrays {
    csr: [Csr; 2],
    layouts: Vec<Layout>,
}

impl Arrays {
    fn of(ops: &Operators) -> Self {
        let layouts = [&ops.a_buf, &ops.at_buf].into_iter().flatten();
        Arrays {
            csr: [Csr::of(&ops.a), Csr::of(&ops.at)],
            layouts: layouts.map(Layout::of).collect(),
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A right-hand side that reaches every column with its own value.
fn probe(n: usize) -> Vec<f32> {
    (0..n).map(|i| 1.0 + (i % 7) as f32 * 0.25).collect()
}

/// Addresses of a plan's index arrays: `A`'s and `Aᵀ`'s columns and the
/// layouts' buffer indices.
fn index_arrays(ops: &Operators) -> Vec<usize> {
    let layouts = [&ops.a_buf, &ops.at_buf].into_iter().flatten();
    let mut at = vec![
        ops.a.colind().as_ptr() as usize,
        ops.at.colind().as_ptr() as usize,
    ];
    at.extend(layouts.map(|b| b.entry_ind().as_ptr() as usize));
    at
}

#[test]
fn a_recycled_build_is_a_fresh_build() {
    let _turn = turn();
    for config in configs() {
        let first = build(G1, &config);
        let split = first
            .a_buf
            .as_ref()
            .is_some_and(|b| (0..b.num_partitions()).any(|p| b.stages_of_partition(p) > 1));
        assert_eq!(split, config.buffsize == 512, "{config:?}");
        let (want, first_at) = (Arrays::of(&first), index_arrays(&first));
        drop(first);
        // Another size fills the same buffers and leaves its own entries
        // in them.
        drop(build(G2, &config));
        let again = build(G1, &config);
        assert!(
            Arrays::of(&again) == want,
            "{config:?}: the rebuild differs"
        );
        for at in index_arrays(&again) {
            assert!(
                first_at.contains(&at),
                "{config:?}: an index array was not recycled"
            );
        }
    }
}

#[test]
fn builds_racing_on_four_threads_give_identical_plans() {
    let _turn = turn();
    let config = Config {
        buffsize: 512,
        ..Config::default()
    };
    let want = [G1, G2].map(|g| Arrays::of(&build(g, &config)));
    std::thread::scope(|s| {
        for t in 0..4 {
            let (config, want) = (&config, &want);
            s.spawn(move || {
                for round in 0..3 {
                    let g = (t + round) % 2;
                    let ops = build([G1, G2][g], config);
                    assert!(Arrays::of(&ops) == want[g], "thread {t}, round {round}");
                }
            });
        }
    });
}
