//! Admission front-end throughput at load 2.0: quotes/sec off one
//! published snapshot, menu builds by window length, heap allocations per
//! quote, and end-to-end accepts/sec through the sequencer.
//!
//! Full mode writes `BENCH_admission_throughput.json` at the workspace
//! root. `ADMISSION_SMOKE=1` is the CI mode: tiny scale, few samples, no
//! JSON (a smoke run never clobbers recorded numbers), and only checks
//! that repeat exactly — held-snapshot and live-state menus equal the
//! serial ones, allocations per quote under a fixed cap, no state copy on
//! the serial walk. Both modes run the checks; no wall-clock ratio is
//! asserted anywhere.

use pretium_bench::{allocations, black_box, write_report, CountingAlloc, Harness};
use pretium_core::{build_menu, Pretium, PretiumConfig, RequestParams};
use pretium_sim::{run_pretium, ScenarioConfig, Variant};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `menu_build` rows: request windows of this many timesteps.
const WINDOWS: [usize; 3] = [1, 8, 32];
/// Ceiling on heap allocations of one quote: the ledger's four vectors,
/// the slot-price cache (one `paths × window` vector), plus the doubling
/// growth of the segment list (a 1,000-segment menu is nine doublings).
/// One allocation per slot, round or edge would blow through it.
const MAX_ALLOCS_PER_QUOTE: u64 = 16;

fn main() {
    let smoke = std::env::var_os("ADMISSION_SMOKE").is_some();
    let sc = if smoke {
        let mut cfg = ScenarioConfig::tiny(21);
        cfg.load_factor = 2.0;
        cfg.build()
    } else {
        ScenarioConfig::evaluation(rand::DEFAULT_SEED, 2.0).build()
    };
    let mut h = Harness::new().sample_size(if smoke { 3 } else { 10 });

    // Warm a system to end-of-run state so the snapshot quotes against
    // non-trivial prices and reservations.
    let warmed = run_pretium(&sc, PretiumConfig::default(), Variant::Full, None, &mut ()).unwrap();
    let mut system = warmed.system;
    let params: Vec<RequestParams> = sc.requests.iter().map(RequestParams::from).collect();
    let n = params.len();
    let snap = system.snapshot();

    h.bench_function("admission_quotes_serial", |b| {
        b.iter(|| {
            for p in &params {
                black_box(snap.quote(p).capacity_bound());
            }
        });
    });

    // The menu builder alone, by window length: every request's own route
    // set, its window cut (or stretched) to `len` steps from its start.
    for len in WINDOWS {
        h.bench_function(&format!("menu_build_{len}_steps"), |b| {
            b.iter(|| {
                for p in &params {
                    let paths = system.paths_for(p.src, p.dst);
                    let menu = build_menu(snap.state(), &paths, p.start, p.start + len - 1);
                    black_box(menu.segments.len());
                }
            });
        });
    }

    // Heap allocations per quote over one serial walk (path cache warm).
    let mut allocs: Vec<u64> = params
        .iter()
        .map(|p| {
            let before = allocations();
            black_box(snap.quote(p));
            allocations() - before
        })
        .collect();
    allocs.sort_unstable();
    let (allocs_mean, allocs_max) = (allocs.iter().sum::<u64>() as f64 / n as f64, allocs[n - 1]);
    assert!(
        allocs_max <= MAX_ALLOCS_PER_QUOTE,
        "a quote allocated {allocs_max} times (cap {MAX_ALLOCS_PER_QUOTE})"
    );

    // Same menus, not just fast ones: a snapshot held across a mutation
    // and a direct build on the live state both agree with the serial
    // walk, bit for bit.
    let serial: Vec<_> = params.iter().map(|p| snap.quote(p)).collect();
    {
        for (m, p) in serial.iter().zip(&params) {
            let paths = system.paths_for(p.src, p.dst);
            let live = build_menu(system.state(), &paths, p.start, p.deadline);
            assert_eq!(&live, m, "live-state menu diverged for {:?}", p.id);
        }
        // Move a price under the held snapshot: it must keep quoting the
        // old menus, at the cost of exactly one state copy.
        let copies = system.telemetry().state_copies;
        let e = sc.net.edge_ids().next().expect("a network has edges");
        let bumped = system.state().price(e, 0) * 2.0 + 1.0;
        system.set_price(e, 0, bumped);
        assert_eq!(system.telemetry().state_copies, copies + 1);
        for (p, m) in params.iter().zip(&serial) {
            assert_eq!(&snap.quote(p), m, "held snapshot saw a mutation at {:?}", p.id);
        }
    }
    drop(snap);

    // Accepts/sec: admit the whole request stream end to end (quote +
    // sequenced booking) against a fresh system each sample.
    let serial_walk = || {
        let mut fresh = Pretium::new(sc.net.clone(), sc.grid, sc.horizon, PretiumConfig::default());
        let mut admitted = 0usize;
        for (p, r) in params.iter().zip(&sc.requests) {
            let (_menu, id) = fresh.admit_one(p, |menu| menu.optimal_purchase(r.value, r.demand));
            admitted += id.is_some() as usize;
        }
        (admitted, fresh.telemetry().state_copies)
    };
    h.bench_function("admission_accepts", |b| b.iter(|| black_box(serial_walk().0)));
    let (admitted, walk_copies) = serial_walk();
    assert!(admitted > 0, "the serial walk admitted nobody");
    assert_eq!(walk_copies, 0, "a serial walk holds no snapshot across an accept");

    let per_sec = |name: &str| n as f64 / h.get(name).unwrap().median().as_secs_f64();
    let q_serial = per_sec("admission_quotes_serial");
    let accepts = per_sec("admission_accepts");
    let menu_us = WINDOWS.map(|len| {
        h.get(&format!("menu_build_{len}_steps")).unwrap().median().as_secs_f64() * 1e6 / n as f64
    });
    println!(
        "admission_throughput: {n} requests at load 2.0 — quotes {q_serial:.0}/s, accepts \
         {accepts:.0}/s, menu build {:.2}/{:.2}/{:.2} us at 1/8/32 steps, {allocs_mean:.1} \
         allocations/quote (max {allocs_max}), 0 state copies on the serial walk",
        menu_us[0], menu_us[1], menu_us[2]
    );
    println!("BENCH\tadmission_quotes_per_sec_serial\t{q_serial:.1}");
    println!("BENCH\tadmission_accepts_per_sec\t{accepts:.1}");
    for (len, us) in WINDOWS.iter().zip(menu_us) {
        println!("BENCH\tadmission_menu_build_us_{len}_steps\t{us:.3}");
    }
    println!("BENCH\tadmission_allocs_per_quote\t{allocs_mean:.1}");

    if smoke {
        println!(
            "admission smoke: held-snapshot and live-state menus equal serial; \
             allocations/quote <= {MAX_ALLOCS_PER_QUOTE}; serial walk copied no state \
             (no JSON written)"
        );
        return;
    }
    let members = format!(
        "\"scale\": \"evaluation\",\n  \
         \"load_factor\": 2.0,\n  \"requests\": {n},\n  \
         \"quotes_per_sec_serial\": {q_serial:.1},\n  \
         \"accepts_per_sec\": {accepts:.1},\n  \
         \"menu_build_us\": {{ \"1_step\": {:.3}, \"8_steps\": {:.3}, \"32_steps\": {:.3} }},\n  \
         \"allocations_per_quote_mean\": {allocs_mean:.1},\n  \
         \"allocations_per_quote_max\": {allocs_max},\n  \
         \"state_copies_serial_walk\": {walk_copies}",
        menu_us[0], menu_us[1], menu_us[2],
    );
    write_report("admission_throughput", &members);
}
