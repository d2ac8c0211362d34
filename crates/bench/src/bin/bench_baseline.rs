//! Performance-trajectory snapshot: times the CTMC solver stack on the
//! paper's MAP(2)×MAP(2) network and writes a `BENCH_*.json` record.
//!
//! Four sweeps:
//!
//! * **dense-feasible populations** — dense LU oracle vs the sparse CSR
//!   engine on identical instances, ending at the largest population the
//!   oracle can still solve in reasonable time; the summary records the
//!   sparse-over-dense speedup there;
//! * **sparse-only populations** — the sparse engine and the direct
//!   level-reduction out to population 100, where the dense path is long
//!   intractable;
//! * **station-count scaling** — the N-station generalization across
//!   `M x population` (tandems of 2, 3, and 4 MAP(2) stations) through
//!   `solve_auto_with_initial`, with the `M = 3` point surfaced in the JSON summary;
//! * **matrix-free frontier** — states vs wall-clock and peak heap for
//!   the matrix-free engine on an `M x population` grid pushing past the
//!   CSR engine's comfortable range (to 742k states at `M = 4`,
//!   population 30 in full mode), cross-checked against the CSR engine
//!   where both still run.
//!
//! Peak heap is measured, not computed: a counting global allocator
//! tracks live bytes, and each solve reports how far the heap grew above
//! where it started. Where the CSR engine is skipped its peak is an
//! analytic estimate, marked as such in the JSON.
//!
//! Usage: `cargo run --release -p burstcap-bench --bin bench_baseline
//! [output.json]` (default output `BENCH_baseline.json` in the current
//! directory). `BURSTCAP_BENCH_FAST=1` drops to one timing repetition.
//!
//! Wall-clock numbers are a snapshot of one machine, not a deterministic
//! artifact; the JSON exists so the repo's perf trajectory is visible from
//! commit to commit.

use burstcap_bench::timing::Stopwatch;

use burstcap_bench::json::{JsonObject, JsonValue};
use burstcap_map::fit::Map2Fitter;
use burstcap_obs::Recorder;
use burstcap_qn::mapqn::{MapNetwork, MapQnSolution};
use burstcap_qn::QnError;
use heap::peak_heap;

/// Populations where dense LU is still tractable; the last one is the
/// "largest dense-feasible" point the summary reports.
const DENSE_FEASIBLE_POPS: [usize; 5] = [10, 15, 20, 25, 30];
/// Populations covered only by the sparse engine and the direct method.
const SPARSE_POPS: [usize; 3] = [50, 75, 100];
/// Station-count scaling grid: `(M, populations)` pairs solved via
/// `solve_auto_with_initial` (populations shrink with M to keep the grid fast).
const STATION_GRID: [(usize, [usize; 2]); 3] = [(2, [30, 60]), (3, [20, 40]), (4, [10, 20])];
/// Matrix-free frontier grid (`(M, population)` points); the full grid ends
/// at 742k states, far past where assembling the CSR generator is sensible.
const FRONTIER_GRID: [(usize, usize); 4] = [(3, 40), (3, 60), (4, 20), (4, 30)];
/// Fast-mode frontier grid: the two points that still cross-check vs CSR.
const FRONTIER_GRID_FAST: [(usize, usize); 2] = [(3, 40), (4, 20)];
/// Largest state count where the CSR engine is also run as a cross-check;
/// above this only the matrix-free engine solves the point.
const CSR_CROSSCHECK_MAX_STATES: usize = 200_000;

/// Measured peak heap: a counting global allocator.
#[expect(
    clippy::disallowed_types,
    reason = "the heap counters are shared by every allocating thread; statistics only"
)]
mod heap {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The process-wide allocator: forwards to the system allocator and counts
    /// live and peak heap bytes.
    struct CountingAlloc;

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    // Relaxed ordering throughout: the counters are statistics and publish no
    // other data.
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrank(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }

    // SAFETY: every method forwards to `System` with the caller's arguments
    // unchanged, so `System`'s guarantees carry over; the counters are updated
    // only after a successful allocation and never touch the memory itself.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                grew(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                grew(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: forwarded verbatim; `ptr` came from this allocator with `layout`.
            unsafe { System.dealloc(ptr, layout) };
            shrank(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                if new_size >= layout.size() {
                    grew(new_size - layout.size());
                } else {
                    shrank(layout.size() - new_size);
                }
            }
            p
        }
    }

    /// Run `work` and return its result with the most heap it held at once:
    /// the peak of live bytes above the live bytes when it started.
    pub fn peak_heap<T>(work: impl FnOnce() -> T) -> (T, usize) {
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let out = work();
        (out, PEAK.load(Ordering::Relaxed) - base)
    }
}

struct Record {
    stations: usize,
    population: usize,
    states: usize,
    transitions: usize,
    method: &'static str,
    median_ms: f64,
    throughput: f64,
}

/// One point of the matrix-free states-vs-cost frontier. Memory figures are
/// measured peak heap above the solve's start (not RSS), except a CSR peak
/// marked `csr_bytes_estimated`, which is [`csr_peak_bytes`].
struct FrontierPoint {
    stations: usize,
    population: usize,
    states: usize,
    matfree_ms: f64,
    iterations: usize,
    sweeps_matrix_free: usize,
    final_residual: f64,
    trace_id: u64,
    trace_events: usize,
    throughput: f64,
    matfree_peak_bytes: usize,
    csr_ms: Option<f64>,
    csr_nnz: Option<usize>,
    csr_peak_bytes: usize,
    csr_bytes_estimated: bool,
    rel_gap: Option<f64>,
}

/// Estimated CSR working set, for points where the CSR engine is not run:
/// the larger of its two phases. Assembly holds the outgoing and incoming
/// CSR (`f64` rate + `u32` column per entry, `u32` row pointers), the exit
/// rates and the transpose's slot counters: `24·nnz + 20·n`. The BiCGSTAB
/// solve holds the incoming CSR and exit rates (`12·nnz + 12·n`), inverse
/// exit rates (`8·n`), a `u32` split point per row (`4·n`) and seven
/// iteration vectors (`56·n`): `12·nnz + 80·n`.
fn csr_peak_bytes(states: usize, nnz: usize) -> usize {
    (24 * nnz + 20 * states).max(12 * nnz + 80 * states)
}

/// JSON summary of the frontier: its largest point and the worst
/// cross-check disagreement.
fn frontier_summary(frontier: &[FrontierPoint]) -> JsonObject {
    let largest = frontier.iter().max_by_key(|p| p.states).expect("non-empty");
    let worst_gap = frontier
        .iter()
        .filter_map(|p| p.rel_gap)
        .fold(0.0_f64, f64::max);
    JsonObject::new()
        .field("stations", largest.stations)
        .field("population", largest.population)
        .field("states", largest.states)
        .field("matfree_ms", JsonValue::f(largest.matfree_ms, 3))
        .field("iterations", largest.iterations)
        .field("matfree_peak_bytes", largest.matfree_peak_bytes)
        .field("csr_peak_bytes", largest.csr_peak_bytes)
        .field("csr_bytes_estimated", largest.csr_bytes_estimated)
        .field(
            "memory_ratio",
            JsonValue::f(
                largest.csr_peak_bytes as f64 / largest.matfree_peak_bytes as f64,
                2,
            ),
        )
        .field("worst_csr_rel_gap", JsonValue::sci(worst_gap, 3))
}

fn median_ms(reps: usize, mut solve: impl FnMut() -> Result<MapQnSolution, QnError>) -> (f64, f64) {
    let mut times: Vec<f64> = Vec::with_capacity(reps);
    let mut throughput = 0.0;
    for _ in 0..reps {
        let t0 = Stopwatch::start();
        let sol = solve().expect("benchmark instance must solve");
        times.push(t0.elapsed_ms());
        throughput = sol.throughput;
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (times[times.len() / 2], throughput)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let fast = std::env::var_os("BURSTCAP_BENCH_FAST").is_some_and(|v| v != "0");
    let reps = if fast { 1 } else { 3 };

    // Moderately bursty MAP(2) fits (converging regime for the sparse
    // engine); the same shapes the ctmc_sparse bench uses.
    let front = Map2Fitter::new(0.01, 8.0, 0.03)
        .fit()
        .expect("feasible")
        .map();
    let db = Map2Fitter::new(0.008, 12.0, 0.02)
        .fit()
        .expect("feasible")
        .map();
    let think = 0.3;

    let mut records: Vec<Record> = Vec::new();
    let mut push = |net: &MapNetwork, method: &'static str, median: f64, x: f64| {
        records.push(Record {
            stations: net.station_count(),
            population: net.population(),
            states: net.state_count(),
            transitions: net.outgoing_csr().expect("assembles").nnz(),
            method,
            median_ms: median,
            throughput: x,
        });
    };

    println!(
        "{}",
        burstcap_bench::header("bench_baseline: dense LU vs sparse CSR engine")
    );
    let mut dense_at_largest = 0.0;
    let mut sparse_at_largest = 0.0;
    let mut agreement = 0.0;
    for &pop in &DENSE_FEASIBLE_POPS {
        let net = MapNetwork::new(pop, think, front, db).expect("valid network");
        let (lu_ms, lu_x) = median_ms(reps, || net.solve_dense_lu(1_000_000));
        let (csr_ms, csr_x) =
            median_ms(reps, || net.solve_sparse_with_initial(None).map(|(s, _)| s));
        push(&net, "dense_lu", lu_ms, lu_x);
        push(&net, "sparse_bicgstab_ilu0", csr_ms, csr_x);
        println!(
            "{}",
            burstcap_bench::row(
                &format!("pop {pop} ({} states)", net.state_count()),
                &[
                    format!("LU {lu_ms:.1} ms"),
                    format!("CSR {csr_ms:.1} ms"),
                    format!("{:.1}x", lu_ms / csr_ms),
                ],
            )
        );
        if pop == *DENSE_FEASIBLE_POPS.last().expect("non-empty") {
            dense_at_largest = lu_ms;
            sparse_at_largest = csr_ms;
            agreement = (lu_x - csr_x).abs() / lu_x;
        }
    }

    println!(
        "{}",
        burstcap_bench::header("bench_baseline: sparse engine beyond dense reach")
    );
    for &pop in &SPARSE_POPS {
        let net = MapNetwork::new(pop, think, front, db).expect("valid network");
        let (csr_ms, csr_x) =
            median_ms(reps, || net.solve_sparse_with_initial(None).map(|(s, _)| s));
        let (direct_ms, direct_x) = median_ms(reps, || net.solve());
        push(&net, "sparse_bicgstab_ilu0", csr_ms, csr_x);
        push(&net, "direct_level_reduction", direct_ms, direct_x);
        println!(
            "{}",
            burstcap_bench::row(
                &format!("pop {pop} ({} states)", net.state_count()),
                &[
                    format!("CSR {csr_ms:.1} ms"),
                    format!("direct {direct_ms:.1} ms"),
                ],
            )
        );
    }

    println!(
        "{}",
        burstcap_bench::header("bench_baseline: station-count x population scaling (solve_auto)")
    );
    // A light extra tier reused for every station beyond the front/db pair,
    // so tandems of different length stay comparable.
    let extra = Map2Fitter::new(0.004, 4.0, 0.012)
        .fit()
        .expect("feasible")
        .map();
    let mut m3_states = 0usize;
    let mut m3_ms = 0.0;
    let mut m3_x = 0.0;
    for &(m, pops) in &STATION_GRID {
        for &pop in &pops {
            let mut stations = vec![front];
            stations.resize(m - 1, extra);
            stations.push(db);
            let net = MapNetwork::tandem(pop, think, stations).expect("valid network");
            let (auto_ms, auto_x) = median_ms(reps, || {
                net.solve_auto_with_initial(10_000, None).map(|(s, _)| s)
            });
            push(&net, "solve_auto", auto_ms, auto_x);
            println!(
                "{}",
                burstcap_bench::row(
                    &format!("M={m} pop {pop} ({} states)", net.state_count()),
                    &[format!("auto {auto_ms:.1} ms"), format!("X {auto_x:.1}")],
                )
            );
            if m == 3 && pop == pops[pops.len() - 1] {
                m3_states = net.state_count();
                m3_ms = auto_ms;
                m3_x = auto_x;
            }
        }
    }

    println!(
        "{}",
        burstcap_bench::header(
            "bench_baseline: matrix-free frontier (states vs wall-clock / memory)"
        )
    );
    // Single-shot timings: these are the longest solves in the suite, and the
    // point of the sweep is the states-vs-cost shape, not median stability.
    let frontier_grid: &[(usize, usize)] = if fast {
        &FRONTIER_GRID_FAST
    } else {
        &FRONTIER_GRID
    };
    let mut frontier: Vec<FrontierPoint> = Vec::new();
    // Transition density (nnz per state) measured at the assembled points and
    // reused to estimate CSR storage where assembly is deliberately skipped.
    let mut nnz_per_state = 0.0_f64;
    for &(m, pop) in frontier_grid {
        let mut stations = vec![front];
        stations.resize(m - 1, extra);
        stations.push(db);
        let net = MapNetwork::tandem(pop, think, stations).expect("valid network");
        let states = net.state_count();
        // Frontier solves run traced so the row mirrors the solver's own
        // diagnostics (residual, sweep split, span link) next to the
        // wall-clock figures; bench_obs pins the recorder's cost as <3%.
        let recorder = Recorder::new();
        let t0 = Stopwatch::start();
        let ((sol, _pi), matfree_peak_bytes) = peak_heap(|| {
            net.solve_matrix_free_with_initial_traced(1, None, &recorder.trace())
                .expect("matrix-free solve")
        });
        let matfree_ms = t0.elapsed_ms();
        let trace_events = recorder.events().iter().filter(|e| !e.volatile).count();
        let (csr_ms, csr_nnz, csr_peak, rel_gap) = if states <= CSR_CROSSCHECK_MAX_STATES {
            let nnz = net.outgoing_csr().expect("assembles").nnz();
            nnz_per_state = nnz as f64 / states as f64;
            let t1 = Stopwatch::start();
            let ((csr, _), peak) =
                peak_heap(|| net.solve_sparse_with_initial(None).expect("csr solve"));
            let csr_ms = t1.elapsed_ms();
            let gap = (sol.throughput - csr.throughput).abs() / csr.throughput;
            assert!(
                gap < 1e-8,
                "matrix-free vs CSR disagree at M={m} pop {pop}: rel gap {gap:.3e}"
            );
            (Some(csr_ms), Some(nnz), Some(peak), Some(gap))
        } else {
            (None, None, None, None)
        };
        let (csr_bytes, estimated) = match csr_peak {
            Some(peak) => (peak, false),
            // Density extrapolated from the last assembled point; marked as
            // an estimate in the JSON.
            None => (
                csr_peak_bytes(states, (nnz_per_state * states as f64) as usize),
                true,
            ),
        };
        let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
        println!(
            "{}",
            burstcap_bench::row(
                &format!("M={m} pop {pop} ({states} states)"),
                &[
                    format!(
                        "matfree {matfree_ms:.1} ms / {} it",
                        sol.diagnostics.iterations
                    ),
                    match csr_ms {
                        Some(ms) => format!("CSR {ms:.1} ms"),
                        None => "CSR skipped".to_string(),
                    },
                    format!(
                        "mem {:.1} vs {:.1}{} MB",
                        mb(matfree_peak_bytes),
                        mb(csr_bytes),
                        if estimated { "~" } else { "" }
                    ),
                ],
            )
        );
        frontier.push(FrontierPoint {
            stations: m,
            population: pop,
            states,
            matfree_ms,
            iterations: sol.diagnostics.iterations,
            sweeps_matrix_free: sol.diagnostics.sweeps_per_engine.matrix_free,
            final_residual: sol.diagnostics.final_residual,
            trace_id: sol.diagnostics.trace_id,
            trace_events,
            throughput: sol.throughput,
            matfree_peak_bytes,
            csr_ms,
            csr_nnz,
            csr_peak_bytes: csr_bytes,
            csr_bytes_estimated: estimated,
            rel_gap,
        });
    }

    let speedup = dense_at_largest / sparse_at_largest;
    let largest = *DENSE_FEASIBLE_POPS.last().expect("non-empty");
    let largest_states = MapNetwork::new(largest, think, front, db)
        .expect("valid network")
        .state_count();
    println!(
        "\nsparse vs dense LU at the largest dense-feasible point \
         (pop {largest}, {largest_states} states): {speedup:.1}x, \
         throughput agreement {agreement:.2e}"
    );

    // Shared deterministic JSON writer (the vendored serde shim has no
    // serializer): every float carries an explicit precision, one field per
    // line.
    let map_obj = |mean: f64, i: f64, p95: f64| {
        JsonObject::new()
            .field("mean", JsonValue::f(mean, 3))
            .field("index_of_dispersion", JsonValue::f(i, 1))
            .field("p95", JsonValue::f(p95, 3))
    };
    let frontier_rows: Vec<JsonValue> = frontier
        .iter()
        .map(|p| {
            let mut obj = JsonObject::new()
                .field("stations", p.stations)
                .field("population", p.population)
                .field("states", p.states)
                .field("method", "matrix_free_bicgstab_ilu0")
                .field("matfree_ms", JsonValue::f(p.matfree_ms, 3))
                .field("iterations", p.iterations)
                .field("sweeps_matrix_free", p.sweeps_matrix_free)
                .field("final_residual", JsonValue::sci(p.final_residual, 3))
                .field("trace_id", p.trace_id)
                .field("trace_events", p.trace_events)
                .field("throughput", JsonValue::f(p.throughput, 6))
                .field("matfree_peak_bytes", p.matfree_peak_bytes)
                .field("csr_peak_bytes", p.csr_peak_bytes)
                .field("csr_bytes_estimated", p.csr_bytes_estimated);
            if let Some(ms) = p.csr_ms {
                obj = obj.field("csr_ms", JsonValue::f(ms, 3));
            }
            if let Some(nnz) = p.csr_nnz {
                obj = obj.field("csr_nnz", nnz);
            }
            if let Some(gap) = p.rel_gap {
                obj = obj.field("csr_rel_gap", JsonValue::sci(gap, 3));
            }
            obj.into()
        })
        .collect();
    let rows: Vec<JsonValue> = records
        .iter()
        .map(|r| {
            JsonObject::new()
                .field("stations", r.stations)
                .field("population", r.population)
                .field("states", r.states)
                .field("transitions", r.transitions)
                .field("method", r.method)
                .field("median_ms", JsonValue::f(r.median_ms, 3))
                .field("throughput", JsonValue::f(r.throughput, 6))
                .into()
        })
        .collect();
    let report = JsonObject::new()
        .field("bench", "bench_baseline")
        .field("seed", burstcap_bench::BASE_SEED)
        .field("front_map", map_obj(0.01, 8.0, 0.03))
        .field("db_map", map_obj(0.008, 12.0, 0.02))
        .field("extra_tier_map", map_obj(0.004, 4.0, 0.012))
        .field("think_time", JsonValue::f(think, 2))
        .field("repetitions", reps)
        .field(
            "largest_dense_feasible",
            JsonObject::new()
                .field("population", largest)
                .field("states", largest_states)
                .field("dense_lu_ms", JsonValue::f(dense_at_largest, 3))
                .field("sparse_ms", JsonValue::f(sparse_at_largest, 3))
                .field("speedup", JsonValue::f(speedup, 2))
                .field("throughput_rel_gap", JsonValue::sci(agreement, 3)),
        )
        .field(
            "three_station_point",
            JsonObject::new()
                .field("stations", 3_usize)
                .field("population", STATION_GRID[1].1[1])
                .field("states", m3_states)
                .field("solve_auto_ms", JsonValue::f(m3_ms, 3))
                .field("throughput", JsonValue::f(m3_x, 6)),
        )
        .field("matrix_free_frontier", frontier_summary(&frontier))
        .field("results", rows)
        .field("frontier_points", frontier_rows);
    burstcap_bench::json::write_report(&out_path, &report);
    println!("wrote {out_path}");
}
