//! The traced run: per-layer costs, timed from outside the program.
//!
//! It never feeds the end-to-end numbers. It runs the workload's sweep
//! once to warm up, then once at `nproc` threads and once at one thread
//! (all three digests must be equal), records the workload's own
//! inputs, and then times calls into each layer's public functions over
//! those inputs, one span per call or per chunk of calls. Every
//! per-layer metric is a span name's self time divided by its call
//! count. The spans are written to
//! `.bench_out/spans-<workload>-seed<n>.jsonl` when the run ends.

use crate::host::{self, Manifest};
use crate::spans::{SpanId, Tracer};
use crate::suite::{self, Attrib, Bench, Inputs, Size, Sweep};
use crate::{check_digests, median, Args, Metric, Report};
use mosaic_core::hash::xxhash::xxh64_u64;
use mosaic_core::hash::{TabulationHasher, XxFamily};
use mosaic_core::iceberg::{ConcurrentIcebergTable, IcebergConfig, IcebergTable};
use mosaic_core::mem::{
    Asid, LinuxMemory, MemoryLayout, MemoryManager, MosaicMemory, PageKey, Pfn, VirtAddr, Vpn,
    PAGE_SIZE,
};
use mosaic_core::mmu::{
    Arity, Associativity, MosaicTlb, PageWalker, RadixTable, TlbConfig, Toc, VanillaTlb,
};
use mosaic_core::sim::dual::DualSim;
use mosaic_core::sim::fig6::{run_workload_observed_jobs, Fig6Config, TlbKind};
use mosaic_core::sim::os::{frames_for_footprint, OsModel};
use mosaic_core::sim::parallel::{derive_seed, run_cells};
use mosaic_core::sim::pressure::PressureWorkload;
use mosaic_core::sim::trace_buffer::TraceBufferBuilder;
use mosaic_core::tenants::{build_schedule, TenantOp, TenantsConfig};
use mosaic_core::workloads::{Access, Workload, WorkloadMeta};
use mosaic_obs::ObsHandle;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer metrics that are one span name's self time per call.
const PER_CALL_NS: [(&str, &str); 27] = [
    ("workloads.gen_ns_per_access", "workloads.run"),
    ("sim.trace.record_ns_per_access", "sim.trace.record"),
    ("sim.trace.replay_ns_per_access", "sim.trace.replay"),
    ("sim.os.touch_ns", "sim.os.touch"),
    ("sim.dual.batch_ns_per_ref", "sim.dual.access_batch"),
    (
        "mmu.tlb.vanilla.8way.lookup_ns",
        "mmu.tlb.vanilla.8way.lookup",
    ),
    (
        "mmu.tlb.vanilla.full.lookup_ns",
        "mmu.tlb.vanilla.full.lookup",
    ),
    (
        "mmu.tlb.mosaic.8way.lookup_ns",
        "mmu.tlb.mosaic.8way.lookup",
    ),
    (
        "mmu.tlb.mosaic.full.lookup_ns",
        "mmu.tlb.mosaic.full.lookup",
    ),
    ("mmu.tlb.vanilla.fill_ns", "mmu.tlb.vanilla.8way.fill"),
    ("mmu.tlb.mosaic.fill_ns", "mmu.tlb.mosaic.8way.fill"),
    ("mmu.walk.ns_per_walk", "mmu.walk"),
    ("mem.mosaic.access_ns", "mem.mosaic.access"),
    ("mem.linux.access_ns", "mem.linux.access"),
    ("mem.verify_ns", "mem.verify"),
    ("mem.mosaic.release_asid_ns", "mem.mosaic.release_asid"),
    ("mem.linux.release_asid_ns", "mem.linux.release_asid"),
    ("iceberg.load85.insert_ns", "iceberg.load85.insert"),
    ("iceberg.load85.get_ns", "iceberg.load85.get"),
    ("iceberg.load85.remove_ns", "iceberg.load85.remove"),
    ("iceberg.load95.insert_ns", "iceberg.load95.insert"),
    ("iceberg.load95.get_ns", "iceberg.load95.get"),
    ("iceberg.load95.remove_ns", "iceberg.load95.remove"),
    ("iceberg.concurrent.insert_ns", "iceberg.concurrent.insert"),
    ("iceberg.concurrent.remove_ns", "iceberg.concurrent.remove"),
    ("hash.xxh64_ns", "hash.xxh64"),
    ("hash.tabulation_ns", "hash.tabulation"),
];

/// Calls per chunk span for sub-microsecond layer calls.
const CHUNK: usize = 4096;

/// Caps on how much of the workload's recorded stream each layer pass
/// replays: `(default, tiny)`.
const STREAM_CAP: (usize, usize) = (2_000_000, 50_000);
const ATTRIB_CAP: (usize, usize) = (200_000, 20_000);
const HASH_CAP: (usize, usize) = (500_000, 20_000);

fn cap(size: Size, c: (usize, usize)) -> usize {
    match size {
        Size::Default => c.0,
        Size::Tiny => c.1,
    }
}

/// The Figure 6 arities; the per-layer TLB metrics use the first.
fn arities() -> Vec<Arity> {
    [4, 8, 16, 32, 64].map(Arity::new).to_vec()
}

/// The workload's own inputs as single-layer calls see them.
struct Stream {
    /// Page references in program order, each with its address space.
    refs: Vec<(Asid, Access)>,
    /// Tenant exits: `(position in refs, retiring ASID)`.
    exits: Vec<(usize, Asid)>,
    /// Iceberg buckets of the memory pool the program runs this
    /// workload on; `None` sizes the pool to the footprint, as the
    /// Figure 6 OS model does (first touches only, no reclaim).
    pool_buckets: Option<usize>,
    seed: u64,
}

impl Stream {
    fn distinct_pages(&self) -> Vec<Vpn> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (_, a) in &self.refs {
            let vpn = a.addr.vpn();
            if seen.insert(vpn) {
                out.push(vpn);
            }
        }
        out
    }

    /// The memory pool for the mem layer.
    fn layout(&self) -> MemoryLayout {
        match self.pool_buckets {
            Some(b) => MemoryLayout::new(IcebergConfig::paper_default(b)),
            None => {
                let keys: HashSet<(Asid, Vpn)> = self
                    .refs
                    .iter()
                    .map(|&(asid, a)| (asid, a.addr.vpn()))
                    .collect();
                MemoryLayout::default()
                    .with_at_least_frames(frames_for_footprint(keys.len() as u64, 0))
            }
        }
    }
}

/// A recorded stream replayed as a workload, so the program's sweep
/// functions can run over another workload's inputs.
struct Replay<'a> {
    refs: &'a [(Asid, Access)],
    footprint_bytes: u64,
}

fn recorded_meta(footprint_bytes: u64, accesses: u64) -> WorkloadMeta {
    WorkloadMeta {
        name: "Recorded",
        description: "a recorded benchmark stream",
        footprint_bytes,
        approx_accesses: accesses,
    }
}

impl Workload for Replay<'_> {
    fn meta(&self) -> WorkloadMeta {
        recorded_meta(self.footprint_bytes, self.refs.len() as u64)
    }

    fn run(&mut self, sink: &mut dyn FnMut(Access)) {
        for &(_, a) in self.refs {
            sink(a);
        }
    }
}

/// The generators whose `Workload::run` the workloads layer times.
fn generators(inputs: &mut Inputs) -> Vec<Box<dyn Workload>> {
    match inputs {
        Inputs::Fig6 { kernels, .. } => std::mem::take(kernels),
        Inputs::Pressure { cfg, cells } => cells
            .iter()
            .map(|&(w, r)| suite::cell_workload(cfg, w, r))
            .collect(),
        Inputs::Tenants { cells } => {
            // One generator per workload kind at the per-tenant size the
            // schedule's slots use.
            let (cfg, _) = cells.last().expect("tenant cells");
            let bytes = cfg.per_tenant_bytes();
            PressureWorkload::ALL
                .into_iter()
                .map(|w| w.build(bytes, cfg.seed))
                .collect()
        }
    }
}

/// Records the stream the layer passes replay.
fn record_stream(inputs: &Inputs, gens: &mut [Box<dyn Workload>], size: Size, seed: u64) -> Stream {
    let limit = cap(size, STREAM_CAP);
    match inputs {
        Inputs::Tenants { cells } => {
            let (cfg, schedule) = cells.last().expect("tenant cells");
            let mut refs = Vec::new();
            let mut exits = Vec::new();
            for op in schedule.ops() {
                match *op {
                    TenantOp::Access {
                        asid, vpn, kind, ..
                    } => {
                        if refs.len() == limit {
                            break;
                        }
                        refs.push((
                            asid,
                            Access {
                                addr: VirtAddr(vpn.0 * PAGE_SIZE),
                                kind,
                            },
                        ));
                    }
                    TenantOp::Exit { asid, .. } => exits.push((refs.len(), asid)),
                    TenantOp::Spawn { .. } => {}
                }
            }
            Stream {
                refs,
                exits,
                pool_buckets: Some(cfg.mem_buckets),
                seed,
            }
        }
        _ => {
            let per = limit / gens.len().max(1);
            let mut refs = Vec::new();
            for (i, g) in gens.iter_mut().enumerate() {
                let asid = Asid(1 + i as u16);
                let mut n = 0;
                g.run(&mut |a| {
                    if n < per {
                        refs.push((asid, a));
                        n += 1;
                    }
                });
            }
            let pool_buckets = match inputs {
                Inputs::Pressure { cfg, .. } => Some(cfg.mem_buckets),
                _ => None,
            };
            Stream {
                refs,
                exits: Vec::new(),
                pool_buckets,
                seed,
            }
        }
    }
}

/// Per-layer results gathered while the passes run.
#[derive(Debug, Default)]
struct Counts {
    accesses: u64,
    first_touches: u64,
    /// `(misses, accesses)` of the 8-way vanilla and Mosaic-4 cells.
    misses_8way: [(u64, u64); 2],
    walk_levels: u64,
    swap_ops: [u64; 2],
    dropped: [u64; 2],
    frames_freed: [u64; 2],
    backyard_frac: f64,
    mean_candidate_index: f64,
    distinct_traces: u64,
    exits: u64,
    classified: u64,
    cell_s: Vec<f64>,
    cells_wall_s: f64,
}

fn workloads_layer(t: &mut Tracer, gens: &mut [Box<dyn Workload>], c: &mut Counts) {
    for g in gens.iter_mut() {
        let id = t.open("workloads.run");
        let mut n = 0u64;
        let mut acc = 0u64;
        g.run(&mut |a| {
            n += 1;
            acc ^= a.addr.0;
        });
        black_box(acc);
        t.close(id, n);
        c.accesses += n;
    }
}

fn trace_buffer_layer(t: &mut Tracer, s: &Stream, problems: &mut Vec<String>) {
    let accesses: Vec<Access> = s.refs.iter().map(|&(_, a)| a).collect();
    let mut builder = TraceBufferBuilder::new();
    t.chunked("sim.trace.record", &accesses, CHUNK, |&a| builder.push(a));
    let id = t.open("sim.trace.record");
    let trace = builder.finish(recorded_meta(0, accesses.len() as u64));
    t.close(id, 0);
    let trace = match trace {
        Ok(tr) => tr,
        Err(e) => {
            problems.push(format!("trace record failed: {e}"));
            return;
        }
    };
    let id = t.open("sim.trace.replay");
    let mut n = 0u64;
    let mut acc = 0u64;
    let res = trace.replay_chunks(&mut |chunk| {
        for a in chunk {
            acc ^= a.addr.0;
        }
        n += chunk.len() as u64;
    });
    black_box(acc);
    t.close(id, n);
    if let Err(e) = res {
        problems.push(format!("trace replay failed: {e}"));
    }
    if n != accesses.len() as u64 {
        problems.push(format!("trace replayed {n} of {} accesses", accesses.len()));
    }
}

/// Times `OsModel::touch` over the stream; returns the populated model.
fn os_layer(t: &mut Tracer, s: &Stream, pages: usize, c: &mut Counts) -> OsModel {
    let layout =
        MemoryLayout::default().with_at_least_frames(frames_for_footprint(pages as u64, 0));
    let mut os = OsModel::new(layout, &arities(), s.seed);
    let mut first = 0u64;
    t.chunked("sim.os.touch", &s.refs, CHUNK, |(_, a)| {
        first += u64::from(os.touch(a.addr.vpn(), a.kind));
    });
    c.first_touches = first;
    os
}

/// The stream's address-space segments: a churn-free stream replays
/// each address space through a fresh simulator, as the serial engine
/// runs one kernel at a time; a stream with exits is one segment.
fn segments(s: &Stream) -> Vec<&[(Asid, Access)]> {
    if s.exits.is_empty() {
        s.refs.chunk_by(|a, b| a.0 == b.0).collect()
    } else {
        vec![&s.refs]
    }
}

fn accesses(seg: &[(Asid, Access)]) -> Vec<Access> {
    seg.iter().map(|&(_, a)| a).collect()
}

/// Times `DualSim::access_batch` (every Figure 6 cell in one serial
/// pass) over the stream. Also returns each segment's nanoseconds per
/// reference per instance: the stream caps every kernel at the same
/// length, so the composition check weights each kernel's own cost by
/// the references the sweep gives it.
fn dual_layer(t: &mut Tracer, s: &Stream, pages: usize) -> Vec<f64> {
    let assocs = Associativity::FIGURE6_SWEEP;
    let ars = arities();
    let instances = (assocs.len() * (1 + ars.len())) as u64;
    let mut per_segment = Vec::new();
    for seg in segments(s) {
        let mut sim = DualSim::new(1024, &assocs, &ars, pages as u64, None, s.seed);
        let batch = accesses(seg);
        let t0 = Instant::now();
        for chunk in batch.chunks(CHUNK) {
            let id = t.open("sim.dual.access_batch");
            sim.access_batch(chunk);
            t.close(id, chunk.len() as u64 * instances);
        }
        per_segment.push(t0.elapsed().as_nanos() as f64 / (seg.len() as u64 * instances) as f64);
    }
    per_segment
}

/// The Figure 6 grid fanned out on `jobs` threads: one `DualSim` per
/// associativity and segment, holding vanilla and every arity, each
/// timed around its call. It gives the parallel-engine metrics where
/// the program's own cells run inside its sweep function, and the
/// 8-way miss ratios where the program reports none.
fn grid_layer(t: &mut Tracer, s: &Stream, pages: usize, jobs: usize, c: &mut Counts) {
    let ars = arities();
    let segs = segments(s);
    let cells: Vec<(Associativity, &[(Asid, Access)])> = Associativity::FIGURE6_SWEEP
        .into_iter()
        .flat_map(|assoc| segs.iter().map(move |&seg| (assoc, seg)))
        .collect();
    let n = cells.len() as u64;
    let t0 = Instant::now();
    let id = t.open("sim.grid");
    let outs = run_cells(jobs, cells, |_, (assoc, seg)| {
        let start = Instant::now();
        let mut sim = DualSim::new(1024, &[assoc], &ars, pages as u64, None, s.seed);
        for chunk in accesses(seg).chunks(CHUNK) {
            sim.access_batch(chunk);
        }
        (sim.results(), seg.len() as u64, start, Instant::now())
    });
    for (results, refs, start, end) in outs {
        t.record("sim.grid.cell", start, end, refs * results.len() as u64);
        c.cell_s.push((end - start).as_secs_f64());
        for (assoc, arity, stats) in results {
            let slot = match arity {
                None => 0,
                Some(a) if a == ars[0] => 1,
                Some(_) => continue,
            };
            if assoc == Associativity::Ways(8) {
                c.misses_8way[slot].0 += stats.misses;
                c.misses_8way[slot].1 += stats.accesses;
            }
        }
    }
    t.close(id, n);
    c.cells_wall_s = t0.elapsed().as_secs_f64();
}

/// The mmu layer over the stream's compulsory misses (each distinct
/// page's first reference, which misses in every Figure 6 cell): fills
/// into fresh 8-way and fully associative TLBs, lookups of the whole
/// stream on the TLBs those fills warmed, and page walks.
fn mmu_layer(t: &mut Tracer, s: &Stream, pages: &[Vpn], os: &mut OsModel, c: &mut Counts) {
    let mut seen = HashSet::new();
    let firsts: Vec<(Asid, Vpn)> = s
        .refs
        .iter()
        .map(|&(asid, a)| (asid, a.addr.vpn()))
        .filter(|k| seen.insert(*k))
        .collect();
    // One ToC fill per distinct mosaic page, with its leaf ToC as the
    // OS model's walk hands it over.
    let arity = arities()[0];
    let mut seen = HashSet::new();
    let toc_fills: Vec<(Asid, Vpn, Toc)> = firsts
        .iter()
        .filter(|&&(asid, vpn)| seen.insert((asid, arity.split(vpn).0 .0)))
        .map(|&(asid, vpn)| (asid, vpn, os.mosaic_walk(0, vpn)))
        .collect();

    for assoc in [Associativity::Ways(8), Associativity::Full] {
        let label = match assoc {
            Associativity::Full => "full",
            _ => "8way",
        };
        let cfg = TlbConfig::new(1024, assoc);
        let mut tlb = VanillaTlb::new(cfg);
        let name = format!("mmu.tlb.vanilla.{label}");
        t.chunked(&format!("{name}.fill"), &firsts, CHUNK, |&(asid, vpn)| {
            tlb.fill_base(asid, vpn, Pfn(vpn.0));
        });
        t.chunked(&format!("{name}.lookup"), &s.refs, CHUNK, |&(asid, a)| {
            black_box(tlb.lookup(asid, a.addr.vpn()));
        });
        let mut tlb = MosaicTlb::new(cfg, arity);
        let name = format!("mmu.tlb.mosaic.{label}");
        t.chunked(
            &format!("{name}.fill"),
            &toc_fills,
            CHUNK,
            |(asid, vpn, toc)| {
                tlb.fill_toc_ref(*asid, *vpn, toc);
            },
        );
        t.chunked(&format!("{name}.lookup"), &s.refs, CHUNK, |&(asid, a)| {
            black_box(tlb.lookup(asid, a.addr.vpn()));
        });
    }

    let mut table = RadixTable::x86_vanilla();
    for (i, &vpn) in pages.iter().enumerate() {
        table.insert(vpn.0, Pfn(i as u64));
    }
    let mut walker = PageWalker::new(table);
    let mut levels = 0u64;
    t.chunked("mmu.walk", &firsts, CHUNK, |&(_, vpn)| {
        let (v, l) = walker.walk_leveled(vpn.0);
        black_box(v);
        levels += u64::from(l);
    });
    c.walk_levels = levels;
}

/// The mem layer: `try_access` over the stream for both managers, with
/// exits released where the schedule has them.
fn mem_layer(t: &mut Tracer, s: &Stream, c: &mut Counts, problems: &mut Vec<String>) {
    let layout = s.layout();
    let mut mosaic = MosaicMemory::new(layout, s.seed);
    let mut linux = LinuxMemory::new(layout);
    let managers: [(&str, &mut dyn MemoryManager); 2] =
        [("mosaic", &mut mosaic), ("linux", &mut linux)];
    let asids: Vec<Asid> = {
        let mut v: Vec<Asid> = s.refs.iter().map(|&(a, _)| a).collect();
        v.sort_unstable_by_key(|a| a.0);
        v.dedup();
        v
    };
    for (i, (name, m)) in managers.into_iter().enumerate() {
        let access = format!("mem.{name}.access");
        let release = format!("mem.{name}.release_asid");
        let mut now = 0u64;
        let mut dropped = 0u64;
        let mut freed = 0u64;
        let mut pos = 0;
        let mut exits = s.exits.iter().peekable();
        while pos < s.refs.len() || exits.peek().is_some() {
            let end = exits.peek().map_or(s.refs.len(), |&&(p, _)| p);
            t.chunked(&access, &s.refs[pos..end], CHUNK, |&(asid, a)| {
                now += 1;
                if m.try_access(PageKey::new(asid, a.addr.vpn()), a.kind, now)
                    .is_err()
                {
                    dropped += 1;
                }
            });
            pos = end;
            if let Some(&(_, asid)) = exits.next() {
                let id = t.open(&release);
                freed += m.release_asid(asid);
                t.close(id, 1);
            }
        }
        let id = t.open("mem.verify");
        let verified = m.verify();
        t.close(id, 1);
        if let Err(e) = verified {
            problems.push(format!("mem.{name} verify failed: {e}"));
        }
        c.swap_ops[i] = m.stats().swap_ops();
        c.dropped[i] = dropped;
        if s.exits.is_empty() {
            // Workloads without churn release every address space once
            // at the end, as a process exit would.
            for &asid in &asids {
                let id = t.open(&release);
                freed += m.release_asid(asid);
                t.close(id, 1);
            }
        }
        c.frames_freed[i] = freed;
    }
}

/// Distinct 64-bit page keys of the stream, extended with derived keys
/// when the stream has fewer pages than the table needs.
fn page_keys(s: &Stream, need: usize) -> Vec<u64> {
    let mut seen = HashSet::new();
    let mut keys: Vec<u64> = s
        .refs
        .iter()
        .map(|&(asid, a)| (u64::from(asid.0) << 48) | a.addr.vpn().0)
        .filter(|k| seen.insert(*k))
        .collect();
    let base = keys.clone();
    let mut round = 1u64;
    while keys.len() < need && !base.is_empty() {
        for &k in &base {
            let derived = k ^ (round << 40);
            if seen.insert(derived) {
                keys.push(derived);
            }
        }
        round += 1;
    }
    keys
}

/// The iceberg layer on the paper geometry (64-slot buckets, d = 6),
/// 16 Ki slots: insert, get and remove costs in the last five points of
/// load below 85 % and 95 %.
fn iceberg_layer(t: &mut Tracer, s: &Stream, c: &mut Counts) {
    let cfg = IcebergConfig::paper_default(256);
    let slots = cfg.total_slots();
    let keys = page_keys(s, slots);
    let family = XxFamily::new(cfg.hash_count(), s.seed);
    let mut table: IcebergTable<u64, u64, XxFamily> = IcebergTable::new(cfg, family);
    let mut next = 0usize;
    // Inserts the stream's next keys until the table holds `target`;
    // returns the keys placed (a key whose every candidate is full is
    // skipped, as the allocator would report a conflict).
    let fill_to =
        |table: &mut IcebergTable<u64, u64, XxFamily>, next: &mut usize, target: usize| {
            let mut placed = Vec::new();
            while table.len() < target && *next < keys.len() {
                let k = keys[*next];
                *next += 1;
                if table.insert(k, k).is_ok() {
                    placed.push(k);
                }
            }
            placed
        };
    for load in [85usize, 95] {
        fill_to(&mut table, &mut next, slots * (load - 5) / 100);
        let band_start = next;
        let id = t.open(&format!("iceberg.load{load}.insert"));
        let band = fill_to(&mut table, &mut next, slots * load / 100);
        t.close(id, (next - band_start) as u64);
        t.chunked(&format!("iceberg.load{load}.get"), &band, CHUNK, |k| {
            black_box(table.get(k));
        });
        if load == 95 {
            c.backyard_frac = table.occupancy().backyard_fraction();
            let resident: Vec<u64> = table.iter().map(|(k, _)| *k).collect();
            let sum: usize = resident
                .iter()
                .filter_map(|k| table.candidate_index_of(k))
                .sum();
            c.mean_candidate_index = sum as f64 / resident.len().max(1) as f64;
        }
        t.chunked(&format!("iceberg.load{load}.remove"), &band, CHUNK, |k| {
            black_box(table.remove(k));
        });
        // Restore the band so the next load level builds on this one.
        for &k in &band {
            let _ = table.insert(k, k);
        }
    }

    let family = XxFamily::new(cfg.hash_count(), s.seed);
    let ct: ConcurrentIcebergTable<u64, u64, XxFamily> = ConcurrentIcebergTable::new(cfg, family);
    let target = slots * 85 / 100;
    let mut inserted = Vec::with_capacity(target);
    for chunk in keys.chunks(CHUNK) {
        if ct.len() >= target {
            break;
        }
        let id = t.open("iceberg.concurrent.insert");
        for &k in chunk {
            if ct.insert(k, k).is_ok() {
                inserted.push(k);
            }
        }
        t.close(id, chunk.len() as u64);
    }
    t.chunked("iceberg.concurrent.remove", &inserted, CHUNK, |k| {
        black_box(ct.remove(k));
    });
}

fn hash_layer(t: &mut Tracer, s: &Stream, size: Size) {
    let n = s.refs.len().min(cap(size, HASH_CAP));
    let vpns: Vec<u64> = s.refs[..n].iter().map(|(_, a)| a.addr.vpn().0).collect();
    let seed = s.seed;
    t.chunked("hash.xxh64", &vpns, CHUNK, |&v| {
        black_box(xxh64_u64(v, seed));
    });
    let hasher = TabulationHasher::new(8, IcebergConfig::paper_default(64).hash_count(), seed);
    t.chunked("hash.tabulation", &vpns, CHUNK, |&v| {
        black_box(hasher.hash_all(v));
    });
}

fn tenants_layer(t: &mut Tracer, inputs: &Inputs, size: Size, seed: u64, c: &mut Counts) {
    let cfg = match inputs {
        Inputs::Tenants { cells } => cells.last().expect("tenant cells").0.clone(),
        _ => TenantsConfig {
            seed: derive_seed(seed, 5),
            ..if size == Size::Tiny {
                TenantsConfig::quick()
            } else {
                TenantsConfig::golden()
            }
        },
    };
    let id = t.open("tenants.build_schedule");
    let schedule = build_schedule(&cfg);
    t.close(id, 1);
    c.distinct_traces = schedule.distinct_traces() as u64;
    c.exits = schedule.exits();
}

/// Attribution cost on workloads other than `fig6_attrib`: a small
/// Figure 6 grid over the stream's first accesses, with and without the
/// classifier.
fn attrib_layer(t: &mut Tracer, s: &Stream, pages: usize, size: Size, c: &mut Counts) {
    let n = s.refs.len().min(cap(size, ATTRIB_CAP));
    let cfg = Fig6Config {
        associativities: vec![Associativity::Ways(8), Associativity::Full],
        arities: vec![Arity::new(4)],
        kernel: None,
        seed: s.seed,
        ..Fig6Config::paper()
    };
    let footprint_bytes = pages as u64 * PAGE_SIZE;
    for (name, on) in [
        ("obs.attrib.sweep_off", false),
        ("obs.attrib.sweep_on", true),
    ] {
        let obs = ObsHandle::enabled();
        obs.set_attrib(on);
        let mut w = Replay {
            refs: &s.refs[..n],
            footprint_bytes,
        };
        let id = t.open(name);
        run_workload_observed_jobs(&cfg, &mut w, &obs, 0, 1);
        t.close(id, n as u64);
        if on {
            c.classified = classified(&obs);
        }
    }
}

fn classified(obs: &ObsHandle) -> u64 {
    obs.attrib_names()
        .iter()
        .filter(|n| n.starts_with("tlb."))
        .map(|n| obs.attrib_table(n).total())
        .sum()
}

/// Wall nanoseconds one span costs to record.
fn span_cost_ns() -> f64 {
    let mut probe = Tracer::new("probe".to_string());
    let n = 10_000;
    let t0 = Instant::now();
    for _ in 0..n {
        let id: SpanId = probe.open("probe");
        probe.close(id, 1);
    }
    t0.elapsed().as_nanos() as f64 / f64::from(n)
}

fn timed_sweep(
    t: &mut Tracer,
    name: &str,
    inputs: &mut Inputs,
    jobs: usize,
    attrib: Attrib,
) -> Sweep {
    t.span(name, |_| {
        let s = suite::sweep(inputs, jobs, attrib);
        let refs = s.refs;
        (s, refs)
    })
}

pub fn traced_run(args: &Args, manifest: &Manifest) -> Report {
    let jobs = host::nproc();
    let mut report = Report::default();
    let mut t = Tracer::new(format!("{}-seed{}", args.bench.name(), args.seed));
    let run_start = Instant::now();
    let root = t.open("run");

    let id = t.open("setup");
    let mut inputs = suite::setup(args.bench, args.size, args.seed);
    t.close(id, 1);

    // A warm-up sweep whose time no metric uses, so neither sweep below
    // pays the first run's cold caches and page faults.
    let warm = timed_sweep(&mut t, "sweep.warmup", &mut inputs, jobs, Attrib::AsDefined);
    // The program's sweep at nproc threads and at one; the outputs must
    // not depend on the thread count.
    let par = timed_sweep(
        &mut t,
        "sweep.jobs_nproc",
        &mut inputs,
        jobs,
        Attrib::AsDefined,
    );
    let ser = timed_sweep(&mut t, "sweep.jobs_1", &mut inputs, 1, Attrib::AsDefined);
    for s in [&warm, &par, &ser] {
        report.attempted += s.refs;
        report.failed += s.failed;
        report.problems.extend(s.violations.iter().cloned());
    }
    check_digests(args, &[warm.digest, par.digest, ser.digest], &mut report);
    drop(warm);
    let mut c = Counts::default();
    // On `fig6_attrib` the classifier runs inside the program's sweep;
    // elsewhere `attrib_layer` measures it over the workload's stream.
    let attrib_in_sweep = args.bench == Bench::Fig6Attrib;
    if attrib_in_sweep {
        // Serial, like `sweep.jobs_1`, so the difference is host time
        // the classifier costs rather than wall time two threads hide.
        let off = timed_sweep(&mut t, "sweep.attrib_off", &mut inputs, 1, Attrib::Off);
        if off.digest != par.digest {
            report
                .problems
                .push("attribution changed the simulated TLB statistics".to_string());
        }
        report.attempted += off.refs;
        c.classified = par.classified;
    }

    let id = t.open("layer_inputs");
    let mut gens = generators(&mut inputs);
    let stream = record_stream(&inputs, &mut gens, args.size, derive_seed(args.seed, 6));
    let pages = stream.distinct_pages();
    t.close(id, stream.refs.len() as u64);

    workloads_layer(&mut t, &mut gens, &mut c);
    drop(gens);
    trace_buffer_layer(&mut t, &stream, &mut report.problems);
    let mut os = os_layer(&mut t, &stream, pages.len(), &mut c);
    let dual_ns = dual_layer(&mut t, &stream, pages.len());
    grid_layer(&mut t, &stream, pages.len(), jobs, &mut c);
    mmu_layer(&mut t, &stream, &pages, &mut os, &mut c);
    drop(os);
    mem_layer(&mut t, &stream, &mut c, &mut report.problems);
    iceberg_layer(&mut t, &stream, &mut c);
    hash_layer(&mut t, &stream, args.size);
    tenants_layer(&mut t, &inputs, args.size, args.seed, &mut c);
    if !attrib_in_sweep {
        attrib_layer(&mut t, &stream, pages.len(), args.size, &mut c);
    }
    t.close(root, 1);
    let run_ns = run_start.elapsed().as_nanos() as f64;

    let costs = t.costs();
    let ns = |name: &str| costs.get(name).map_or(0.0, |c| c.ns_per_call());
    let wall_s = |name: &str| t.wall_ns(name).unwrap_or(0) as f64 / 1e9;

    // Parallel engine: the program's own cells where the benchmark owns
    // the cell loop, else the fanned-out `DualSim` grid.
    let (cell_s, cells_wall) = if par.cell_s.is_empty() {
        (c.cell_s.clone(), c.cells_wall_s)
    } else {
        (par.cell_s.clone(), wall_s("sweep.jobs_nproc"))
    };
    let busy: f64 = cell_s.iter().sum();
    let cell_max = cell_s.iter().copied().fold(0.0, f64::max);

    // Figure 6 miss ratios come from the program's rows where it has them.
    let (vanilla_ratio, mosaic_ratio) = if par.fig6_rows.is_empty() {
        let ratio = |(m, a): (u64, u64)| m as f64 / a.max(1) as f64;
        (ratio(c.misses_8way[0]), ratio(c.misses_8way[1]))
    } else {
        let ratio = |kind: TlbKind| {
            let (m, a) = par
                .fig6_rows
                .iter()
                .filter(|r| r.assoc == Associativity::Ways(8) && r.kind == kind)
                .fold((0u64, 0u64), |(m, a), r| {
                    (m + r.stats.misses, a + r.stats.accesses)
                });
            m as f64 / a.max(1) as f64
        };
        (
            ratio(TlbKind::Vanilla),
            ratio(TlbKind::Mosaic(Arity::new(4))),
        )
    };
    let walks = costs.get("mmu.walk").map_or(0, |c| c.calls);

    let (on, off) = if attrib_in_sweep {
        ("sweep.jobs_1", "sweep.attrib_off")
    } else {
        ("obs.attrib.sweep_on", "obs.attrib.sweep_off")
    };
    let attrib_ns = (wall_s(on) - wall_s(off)) * 1e9 / c.classified.max(1) as f64;

    // Composition: the serial sweep's time, rebuilt from layer costs
    // times the calls that sweep makes.
    let accounted_ns = compose(
        args.bench,
        &inputs,
        &ser,
        &|n| ns(n),
        &dual_ns,
        attrib_ns,
        wall_s("setup"),
    );
    let serial_ns = wall_s("sweep.jobs_1") * 1e9;
    let spans = t.len() as f64;

    let m = |name: &str, value: f64, unit: &'static str| Metric::new(name, value, unit);
    let mut metrics: Vec<Metric> = PER_CALL_NS
        .iter()
        .map(|&(name, span)| m(name, ns(span), "ns"))
        .collect();
    metrics.extend([
        m("workloads.accesses", c.accesses as f64, "count"),
        m("sim.os.first_touches", c.first_touches as f64, "count"),
        m(
            "sim.parallel.busy_frac",
            busy / (cells_wall * jobs as f64),
            "ratio",
        ),
        m("sim.parallel.cell_s_p50", median(&cell_s), "s"),
        m("sim.parallel.cell_s_max", cell_max, "s"),
        m(
            "sim.parallel.speedup",
            wall_s("sweep.jobs_1") / wall_s("sweep.jobs_nproc"),
            "x",
        ),
        m("mmu.tlb.vanilla.miss_ratio", vanilla_ratio, "ratio"),
        m("mmu.tlb.mosaic.miss_ratio", mosaic_ratio, "ratio"),
        m(
            "mmu.walk.levels_per_walk",
            c.walk_levels as f64 / walks.max(1) as f64,
            "count",
        ),
        m("mem.mosaic.swap_ops", c.swap_ops[0] as f64, "count"),
        m("mem.linux.swap_ops", c.swap_ops[1] as f64, "count"),
        m("mem.mosaic.dropped", c.dropped[0] as f64, "count"),
        m("mem.linux.dropped", c.dropped[1] as f64, "count"),
        m("mem.mosaic.frames_freed", c.frames_freed[0] as f64, "count"),
        m("mem.linux.frames_freed", c.frames_freed[1] as f64, "count"),
        m("iceberg.backyard_frac", c.backyard_frac, "ratio"),
        m(
            "iceberg.mean_candidate_index",
            c.mean_candidate_index,
            "count",
        ),
        m(
            "tenants.schedule_build_s",
            wall_s("tenants.build_schedule"),
            "s",
        ),
        m("tenants.distinct_traces", c.distinct_traces as f64, "count"),
        m("tenants.exits", c.exits as f64, "count"),
        m("obs.attrib.ns_per_classified", attrib_ns, "ns"),
        m("obs.attrib.classified", c.classified as f64, "count"),
        m(
            "trace.unaccounted_frac",
            1.0 - accounted_ns / serial_ns,
            "ratio",
        ),
        m(
            "trace.overhead_frac",
            spans * span_cost_ns() / run_ns,
            "ratio",
        ),
    ]);
    report.metrics = metrics;
    report.notes.push(format!(
        "host: peak_rss_mib = {:.1} MiB",
        host::peak_rss_mib().unwrap_or(f64::NAN)
    ));
    report.notes.push(format!(
        "trace: {} spans; serial sweep {:.3} s, rebuilt from layer costs {:.3} s",
        t.len(),
        serial_ns / 1e9,
        accounted_ns / 1e9
    ));
    for (name, cost) in &costs {
        report.notes.push(format!(
            "span {name}: self {:.6} s over {} calls",
            cost.self_ns as f64 / 1e9,
            cost.calls
        ));
    }
    match write_spans(args, manifest, &t) {
        Ok(path) => report.notes.push(format!("spans written to {path}")),
        Err(e) => report.problems.push(format!("could not write spans: {e}")),
    }
    report
}

/// Rebuilds the serial sweep's host time from per-call layer costs and
/// the calls that sweep makes (nanoseconds).
fn compose(
    bench: Bench,
    inputs: &Inputs,
    ser: &Sweep,
    ns: &dyn Fn(&str) -> f64,
    dual_ns: &[f64],
    attrib_ns: f64,
    setup_s: f64,
) -> f64 {
    match inputs {
        Inputs::Fig6 { .. } => {
            // The serial engine generates each kernel's stream and feeds
            // it in batches through one `DualSim` holding every cell. The
            // rows come kernel by kernel, in the stream's segment order.
            let mut total = 0.0;
            let mut kernels: Vec<(&str, u64)> = Vec::new();
            for r in &ser.fig6_rows {
                if kernels.last().map(|k| k.0) != Some(r.workload.as_str()) {
                    kernels.push((&r.workload, r.stats.accesses));
                }
                let k = kernels.len() - 1;
                total += dual_ns.get(k).copied().unwrap_or(f64::NAN) * r.stats.accesses as f64;
            }
            let refs: u64 = kernels.iter().map(|k| k.1).sum();
            total += ns("workloads.run") * refs as f64;
            if bench == Bench::Fig6Attrib {
                total += attrib_ns * ser.classified as f64;
            }
            total
        }
        Inputs::Pressure { .. } => {
            let a = ser.accesses as f64;
            // `run_pressure` builds each cell's workload, records it once
            // and replays it into both managers.
            setup_s * 1e9
                + a * (ns("workloads.run")
                    + ns("sim.trace.record")
                    + 2.0 * ns("sim.trace.replay")
                    + ns("mem.mosaic.access")
                    + ns("mem.linux.access"))
        }
        Inputs::Tenants { .. } => {
            ser.accesses as f64 * (ns("mem.mosaic.access") + ns("mem.linux.access"))
                + ser.exits as f64 * (ns("mem.mosaic.release_asid") + ns("mem.linux.release_asid"))
        }
    }
}

fn write_spans(args: &Args, manifest: &Manifest, t: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.bench.name(),
        args.seed
    ));
    let mut header = String::from("{\"t\":\"manifest\"");
    for (k, v) in manifest.fields() {
        header.push_str(&format!(",\"{k}\":\"{}\"", v.replace('"', "'")));
    }
    header.push_str(&format!(
        ",\"workload\":\"{}\",\"seed\":{},\"size\":\"{}\"}}",
        args.bench.name(),
        args.seed,
        args.size.name()
    ));
    std::fs::write(&path, t.to_jsonl(&header))?;
    Ok(path.display().to_string())
}
