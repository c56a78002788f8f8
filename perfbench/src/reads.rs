//! Per-layer probes of the paper's measurement path: one client thread
//! reading the 16 nest-MBA events of socket 0 (8 read + 8 write
//! channels) with `EventSet::read`, through a `PcpComponent` over the
//! in-process `PcpContext`/`Pmcd` and one over a persistent
//! `WireClient` to a `PmcdServer`. Both daemons front the same
//! simulated counters.
//!
//! Before each probe operation the client books seeded DMA traffic with
//! `SocketShared::record_dma`, so the counters move without any memsim
//! probe work. Every read is checked against the privileged
//! `NestCounters` snapshot taken at the same point (the paper's
//! PCP == direct result), and the two transports' direct fetches of the
//! same instant must agree.

use std::sync::Arc;

use p9_memsim::machine::SocketShared;
use p9_memsim::{CounterSnapshot, Direction, SimMachine};
use papi_sim::components::PcpComponent;
use papi_sim::{EventSet, Papi};
use pcp_sim::{
    InstanceId, MetricDesc, MetricId, PcpContext, PcpError, PmApi, Pmcd, PmcdConfig, Pmns,
};
use pcp_wire::{PmcdServer, WireClient, WireConfig};

use crate::trace::Tracer;
use crate::{Outcome, Rng};

/// A transport shared between a `PcpComponent` and the benchmark, so
/// the per-layer probes fetch over the very connection the reads use.
struct Shared<T>(Arc<T>);

impl<T: PmApi> PmApi for Shared<T> {
    fn pm_lookup_name(&self, name: &str) -> Result<MetricId, PcpError> {
        self.0.pm_lookup_name(name)
    }

    fn pm_get_desc(&self, id: MetricId) -> Result<MetricDesc, PcpError> {
        self.0.pm_get_desc(id)
    }

    fn pm_get_children(&self, prefix: &str) -> Result<Vec<String>, PcpError> {
        self.0.pm_get_children(prefix)
    }

    fn pm_fetch(&self, requests: &[(MetricId, InstanceId)]) -> Result<Vec<u64>, PcpError> {
        self.0.pm_fetch(requests)
    }

    fn fetch_latency_s(&self) -> f64 {
        self.0.fetch_latency_s()
    }
}

/// One counting event set, with the privileged snapshot taken just
/// before its start (its baseline) and the span of its reads.
struct Counting {
    papi: Papi,
    es: EventSet,
    base: CounterSnapshot,
    read_span: &'static str,
}

pub struct Rig {
    _machine: SimMachine,
    socket: Arc<SocketShared>,
    _pmcd: Pmcd,
    _server: PmcdServer,
    inproc: Counting,
    tcp: Counting,
    /// The event sets' transports, for the per-layer fetch probes.
    ctx: Arc<PcpContext>,
    wire: Arc<WireClient>,
    ids: Vec<(MetricId, InstanceId)>,
    names: Vec<String>,
    rng: Rng,
}

/// The 16 nest-MBA event names of socket 0, read/write per channel.
pub fn event_names(pmns: &Pmns) -> Vec<String> {
    let cpu = pmns.instance_of_socket(0).0;
    (0..8)
        .flat_map(|ch| {
            ["READ", "WRITE"].map(|dir| {
                format!(
                    "pcp:::perfevent.hwcounters.nest_mba{ch}_imc.PM_MBA{ch}_{dir}_BYTES.value:cpu{cpu}"
                )
            })
        })
        .collect()
}

fn start(
    component: PcpComponent,
    names: &[String],
    socket: &SocketShared,
    read_span: &'static str,
) -> Result<Counting, String> {
    let mut papi = Papi::new();
    papi.register(Box::new(component));
    let mut es = EventSet::new();
    for n in names {
        es.add_event(n).map_err(|e| format!("add {n}: {e}"))?;
    }
    let base = socket.counters().snapshot();
    es.start(&papi).map_err(|e| format!("start: {e}"))?;
    Ok(Counting {
        papi,
        es,
        base,
        read_span,
    })
}

/// The 16 event values a set started at `base` should read now, from
/// the privileged counters.
fn expected(socket: &SocketShared, base: &CounterSnapshot) -> Vec<i64> {
    let d = socket.counters().snapshot().delta(base);
    (0..8)
        .flat_map(|ch| [d.read_bytes[ch] as i64, d.write_bytes[ch] as i64])
        .collect()
}

impl Rig {
    pub fn setup(seed: u64) -> Result<Rig, String> {
        let machine = SimMachine::quiet(p9_arch::Machine::summit(), seed);
        let pmns = Pmns::for_machine(machine.arch());
        let sockets: Vec<_> = (0..machine.num_sockets())
            .map(|s| machine.socket_shared(s))
            .collect();
        let socket = Arc::clone(&sockets[0]);
        let pmcd = Pmcd::spawn_system(pmns.clone(), sockets.clone(), PmcdConfig::default())
            .map_err(|e| format!("spawn pmcd: {e}"))?;
        let server = PmcdServer::bind_system(
            "127.0.0.1:0",
            pmns.clone(),
            sockets.clone(),
            WireConfig::default(),
        )
        .map_err(|e| format!("bind pmcd server: {e}"))?;
        let names = event_names(&pmns);
        let ctx = Arc::new(PcpContext::connect(
            pmcd.handle(),
            Some(Arc::clone(&socket)),
        ));
        let inproc = start(
            PcpComponent::with_client(Shared(Arc::clone(&ctx)), pmns.clone(), sockets.clone()),
            &names,
            &socket,
            "papi.read.inproc",
        )?;
        let wire = Arc::new(
            WireClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?,
        );
        let tcp = start(
            PcpComponent::with_client(Shared(Arc::clone(&wire)), pmns.clone(), sockets.clone()),
            &names,
            &socket,
            "papi.read.tcp",
        )?;
        let ids = pmns
            .children("")
            .into_iter()
            .map(|n| {
                pmns.lookup(n)
                    .map(|id| (id, pmns.instance_of_socket(0)))
                    .ok_or_else(|| format!("PMNS child {n} has no id"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Rig {
            _machine: machine,
            socket,
            _pmcd: pmcd,
            _server: server,
            inproc,
            tcp,
            ctx,
            wire,
            ids,
            names,
            rng: Rng::new(seed),
        })
    }

    fn book_traffic(&mut self) {
        let r = 64 * (1 + self.rng.below(1 << 16));
        let w = 64 * (1 + self.rng.below(1 << 15));
        self.socket.record_dma(r, Direction::Read);
        self.socket.record_dma(w, Direction::Write);
    }

    /// Per-layer probes of the read path, `reads` operations each made
    /// of direct transport fetches of the same 16 ids and one
    /// `EventSet::read` per transport; then start/stop pairs, and the
    /// server's own fetch accounting read back through the PMNS
    /// self-metrics.
    pub fn probe(&mut self, reads: usize, tracer: &Tracer, out: &mut Outcome) {
        let server_before = self.server_fetch_totals();
        for _ in 0..reads {
            let op = tracer.next_op();
            self.book_traffic();
            let a = tracer.span("pcp.fetch.inproc", op, 1, || self.ctx.pm_fetch(&self.ids));
            let b = tracer.span("pcp_wire.fetch.tcp", op, 1, || {
                self.wire.pm_fetch(&self.ids)
            });
            match (a, b) {
                (Ok(a), Ok(b)) if a == b => {}
                (a, b) => out.fail(format!("direct fetches disagree: {a:?} vs {b:?}")),
            }
            for c in [&mut self.inproc, &mut self.tcp] {
                let want = expected(&self.socket, &c.base);
                match tracer.span(c.read_span, op, 1, || c.es.read()) {
                    Ok(v) if v == want => {}
                    got => out.fail(format!("{} {got:?} != snapshot {want:?}", c.read_span)),
                }
            }
        }
        match (server_before, self.server_fetch_totals()) {
            (Ok((s0, c0)), Ok((s1, c1))) if c1 > c0 => {
                // The two self-metric fetches bracket the probe and are
                // themselves counted; their share is negligible.
                out.layer(
                    "pcp_wire.server_fetch_us",
                    (s1 - s0) as f64 / (c1 - c0) as f64 / 1e3,
                );
            }
            _ => out.fail("server fetch accounting unavailable".into()),
        }
        for _ in 0..reads.min(200) {
            let op = tracer.next_op();
            let mut es = EventSet::new();
            for n in &self.names {
                let _ = es.add_event(n);
            }
            let ok = tracer.span("papi.start_stop", op, 1, || {
                es.start(&self.inproc.papi).and_then(|()| es.stop())
            });
            if let Err(e) = ok {
                out.fail(format!("start/stop: {e}"));
            }
        }
    }

    /// `(pmcd.fetch.latency_ns.sum, pmcd.fetch.count)` of the TCP server.
    fn server_fetch_totals(&self) -> Result<(u64, u64), String> {
        let mut ids = Vec::new();
        for n in ["pmcd.fetch.latency_ns.sum", "pmcd.fetch.count"] {
            let id = self
                .wire
                .pm_lookup_name(n)
                .map_err(|e| format!("{n}: {e}"))?;
            ids.push((id, InstanceId(0)));
        }
        let v = self
            .wire
            .pm_fetch(&ids)
            .map_err(|e| format!("self fetch: {e}"))?;
        Ok((v[0], v[1]))
    }
}
