//! memsim probes: `SimMachine::run_single` sweeps with `CoreSim`
//! loads and stores over footprints sized to each cache level.
//!
//! Each probe runs on a fresh noise-free Summit machine: an untimed
//! warm-up sweep for the cache-level footprints, then the timed sweeps
//! inside a span whose work count is the accesses the core booked. The probe's `CoreStats` and
//! nest-counter deltas are exact functions of the simulator, so they
//! are compared with the reference values in
//! `perfbench/reference/memsim_stats.txt`: a change that only speeds
//! the simulator up must leave every one of them identical.

use p9_memsim::{CoreSim, SimMachine};

use crate::trace::Tracer;
use crate::Outcome;

pub const REFERENCE: &str = "perfbench/reference/memsim_stats.txt";

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// One probe: name, footprint, timed sweeps, the access pattern, and
/// whether an untimed sweep warms the caches first (the cache-level
/// probes) or the timed sweep starts cold (the DRAM probes).
struct Probe {
    name: &'static str,
    /// Span of the timed sweeps.
    span: &'static str,
    footprint: u64,
    sweeps: u64,
    sweep: fn(&mut CoreSim, u64, u64),
    warm: bool,
}

fn load_seq(core: &mut CoreSim, base: u64, len: u64) {
    core.load_seq(base, len);
}

/// 8-byte loads one 4 KiB page apart, eight interleaved passes.
fn load_stride(core: &mut CoreSim, base: u64, len: u64) {
    for lane in 0..8 {
        let mut a = base + lane * 512;
        while a < base + len {
            core.load(a, 8);
            a += 4 * KIB;
        }
    }
}

fn store_seq(core: &mut CoreSim, base: u64, len: u64) {
    core.store_seq(base, len);
}

/// 8-byte stores 256 bytes apart: partial sectors, read-modify-write.
fn store_partial(core: &mut CoreSim, base: u64, len: u64) {
    let mut a = base;
    while a < base + len {
        core.store(a, 8);
        a += 256;
    }
}

const fn probe(
    name: &'static str,
    span: &'static str,
    footprint: u64,
    sweeps: u64,
    sweep: fn(&mut CoreSim, u64, u64),
    warm: bool,
) -> Probe {
    Probe {
        name,
        span,
        footprint,
        sweeps,
        sweep,
        warm,
    }
}

const PROBES: &[Probe] = &[
    probe("l1_hit", "memsim.l1_hit", 16 * KIB, 2000, load_seq, true),
    probe("l2_hit", "memsim.l2_hit", 128 * KIB, 200, load_seq, true),
    probe("l3_hit", "memsim.l3_hit", 2 * MIB, 12, load_seq, true),
    probe("dram_seq", "memsim.dram_seq", 64 * MIB, 1, load_seq, false),
    probe(
        "dram_stride",
        "memsim.dram_stride",
        128 * MIB,
        1,
        load_stride,
        false,
    ),
    probe(
        "store_bypass",
        "memsim.store_bypass",
        64 * MIB,
        1,
        store_seq,
        false,
    ),
    probe(
        "store_rmw",
        "memsim.store_rmw",
        32 * MIB,
        1,
        store_partial,
        false,
    ),
];

/// `(probe name, span name)` of every probe.
pub fn probes() -> impl Iterator<Item = (&'static str, &'static str)> {
    PROBES.iter().map(|p| (p.name, p.span))
}

/// Run every probe `reps` times and return one reference line per
/// probe (`name stats nest-delta`). Lines that differ between
/// repetitions are reported as failures.
pub fn run(reps: usize, tracer: &Tracer, out: &mut Outcome) -> Vec<String> {
    let mut lines = Vec::new();
    for p in PROBES {
        let mut first: Option<String> = None;
        for _ in 0..reps {
            let line = run_one(p, tracer);
            match &first {
                None => first = Some(line),
                Some(f) if *f != line => {
                    out.fail(format!("memsim probe {} is not repeatable", p.name))
                }
                Some(_) => {}
            }
        }
        lines.extend(first);
    }
    lines
}

fn run_one(p: &Probe, tracer: &Tracer) -> String {
    let mut m = SimMachine::quiet(p9_arch::Machine::summit(), 1);
    let region = m.alloc(p.footprint);
    let (base, len) = (region.base(), region.len());
    if p.warm {
        m.run_single(0, |core| (p.sweep)(core, base, len));
    }
    let stats0 = m.core_mut(0, 0).stats();
    let nest0 = m.socket_shared(0).counters().snapshot();
    let op = tracer.next_op();
    tracer.span(p.span, op, 0, || {
        m.run_single(0, |core| {
            for _ in 0..p.sweeps {
                (p.sweep)(core, base, len);
            }
        })
    });
    let s = m.core_mut(0, 0).stats();
    let d = m.socket_shared(0).counters().snapshot().delta(&nest0);
    tracer.set_last_work(
        p.span,
        (s.loads - stats0.loads) + (s.stores - stats0.stores),
    );
    format!(
        "{} loads={} stores={} l1_hits={} l2_hits={} l3_hits={} demand_misses={} \
         prefetch_fills={} bypass_writes={} rmw_partials={} store_allocates={} writebacks={} \
         nest_read={:?} nest_write={:?}",
        p.name,
        s.loads - stats0.loads,
        s.stores - stats0.stores,
        s.l1_hits - stats0.l1_hits,
        s.l2_hits - stats0.l2_hits,
        s.l3_hits - stats0.l3_hits,
        s.demand_misses - stats0.demand_misses,
        s.prefetch_fills - stats0.prefetch_fills,
        s.bypass_writes - stats0.bypass_writes,
        s.rmw_partials - stats0.rmw_partials,
        s.store_allocates - stats0.store_allocates,
        s.writebacks - stats0.writebacks,
        d.read_bytes,
        d.write_bytes,
    )
}

/// Compare probe lines with the committed reference; every difference
/// is a failure of the run.
pub fn check(lines: &[String], reference: &str, out: &mut Outcome) {
    let want: Vec<&str> = reference
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    if want.len() != lines.len() {
        out.fail(format!(
            "memsim reference has {} probes, the run has {}",
            want.len(),
            lines.len()
        ));
    }
    for (got, want) in lines.iter().zip(&want) {
        if got != want {
            out.fail(format!(
                "memsim statistics changed:\n  got:  {got}\n  want: {want}"
            ));
        }
    }
}
