//! The networked PMCD: a multi-client TCP server over the PDU protocol.
//!
//! Architecture (std only, no async runtime):
//!
//! * the **listener core** (`crate::listener`, shared with the HTTP
//!   sidecar) blocks in `accept` and queues each new connection in a
//!   bounded queue; when every worker is busy and the queue is full the
//!   server answers `Error{Busy}` and closes — load is shed at the door
//!   instead of queueing unboundedly (`pmcd.queue.shed`).
//! * a **bounded worker pool** (default 32 threads) blocks on the queue
//!   and is woken per connection. One worker serves one client at a
//!   time, request by request, so each client has at most one fetch in
//!   flight; batch size is additionally capped by
//!   [`WireConfig::max_fetch_batch`]. That pair of bounds is the
//!   backpressure story.
//! * [`PmcdServer::shutdown`] wakes the blocked accept with a dial to
//!   its own address, lets idle workers drain the queue, and joins every
//!   thread — an idle server stops at once. A worker still serving a
//!   live client leaves at that socket's next read-timeout tick
//!   ([`WireConfig::read_timeout`]).
//! * a malformed PDU earns the offending client an `Error{BadPdu}` and a
//!   closed connection — other clients are unaffected, the server stays
//!   up. Disconnects mid-request are absorbed the same way.
//!
//! The server also measures *itself*: PDU counts, client counts, and a
//! fetch-latency histogram are exported as `pmcd.*` metrics through the
//! same lookup/fetch path as the nest counters (ids in a reserved high
//! range so they cannot collide with the PMNS table).

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p9_memsim::machine::SocketShared;
use p9_memsim::{Direction, PrivilegeError, PrivilegeToken};
use pcp_sim::pmns::{InstanceId, MetricId, MetricSemantics, Pmns};
use pcp_sim::selfmetrics::{self, LATENCY_BUCKETS};

use crate::listener::{Backlog, ListenerCore, Service};
use crate::pdu::{
    read_pdu, write_pdu, ErrorCode, Pdu, WireError, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};

/// Base of the reserved id range for the server's self-metrics. The PMNS
/// table indexes from zero, so anything at or above this base is a
/// `pmcd.*` operational metric. (Shared with the in-process daemon.)
pub const SELF_METRIC_BASE: u32 = selfmetrics::SELF_METRIC_BASE;

/// Base of the reserved id range for the `pmcd.obs.*` export of the
/// process-wide obs metric registry.
pub const OBS_METRIC_BASE: u32 = selfmetrics::OBS_METRIC_BASE;

/// Self-metric table: name, units, semantics. The fetch-latency `lt_*`
/// entries are cumulative counts below power-of-two nanosecond
/// thresholds, read out of the log2 histogram
/// (`pcp_sim::selfmetrics::LATENCY_BUCKETS` — a test pins agreement).
const SELF_METRICS: [(&str, &str, MetricSemantics); 15] = [
    ("pmcd.pdu.in", "count", MetricSemantics::Counter),
    ("pmcd.pdu.out", "count", MetricSemantics::Counter),
    ("pmcd.pdu.error", "count", MetricSemantics::Counter),
    ("pmcd.client.current", "count", MetricSemantics::Instant),
    ("pmcd.client.total", "count", MetricSemantics::Counter),
    ("pmcd.client.rejected", "count", MetricSemantics::Counter),
    ("pmcd.fetch.count", "count", MetricSemantics::Counter),
    (
        "pmcd.fetch.latency_ns.sum",
        "nanosecond",
        MetricSemantics::Counter,
    ),
    (
        "pmcd.fetch.latency_ns.lt_1024",
        "count",
        MetricSemantics::Counter,
    ),
    (
        "pmcd.fetch.latency_ns.lt_16384",
        "count",
        MetricSemantics::Counter,
    ),
    (
        "pmcd.fetch.latency_ns.lt_131072",
        "count",
        MetricSemantics::Counter,
    ),
    (
        "pmcd.fetch.latency_ns.lt_1048576",
        "count",
        MetricSemantics::Counter,
    ),
    (
        "pmcd.fetch.latency_ns.lt_16777216",
        "count",
        MetricSemantics::Counter,
    ),
    ("pmcd.queue.depth", "count", MetricSemantics::Instant),
    ("pmcd.queue.shed", "count", MetricSemantics::Counter),
];
// `pmcd.fetch.count` doubles as the +inf bucket: every fetch lands in it.

/// [`SELF_METRICS`] index of the first latency bucket.
const LATENCY_BUCKET_IDX: usize = 8;
/// [`SELF_METRICS`] index of `pmcd.queue.depth` (answered from the
/// connection queue, not from [`ServerStats`]).
const QUEUE_DEPTH_IDX: usize = 13;
/// [`SELF_METRICS`] index of `pmcd.queue.shed`.
const QUEUE_SHED_IDX: usize = 14;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// Worker threads — the maximum number of simultaneously served
    /// clients.
    pub workers: usize,
    /// Accepted connections that may wait for a free worker before the
    /// server starts answering `Error{Busy}`.
    pub pending: usize,
    /// Per-read timeout tick on a client socket. A worker serving a
    /// live connection checks the shutdown flag on each tick, so this
    /// bounds how long [`PmcdServer::shutdown`] waits for such a worker
    /// (idle workers and the accept thread are woken at once). Not an
    /// idle-disconnect timeout.
    pub read_timeout: Duration,
    /// Per-write timeout; a client that stops draining its socket is
    /// disconnected rather than wedging a worker.
    pub write_timeout: Duration,
    /// Largest PDU payload accepted from a client.
    pub max_payload: u32,
    /// Largest number of `(metric, instance)` pairs in one fetch.
    pub max_fetch_batch: usize,
    /// Inject daemon memory traffic on each nest-counter fetch (the
    /// observer-effect knob, as in `pcp_sim::PmcdConfig`).
    pub fetch_touch: bool,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            workers: 32,
            pending: 64,
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(2),
            max_payload: crate::pdu::DEFAULT_MAX_PAYLOAD,
            max_fetch_batch: 1024,
            fetch_touch: false,
        }
    }
}

/// Operational counters, updated lock-free by the workers.
#[derive(Default)]
struct ServerStats {
    pdu_in: AtomicU64,
    pdu_out: AtomicU64,
    pdu_err: AtomicU64,
    clients_current: AtomicU64,
    clients_total: AtomicU64,
    clients_rejected: AtomicU64,
    /// Fetch service times, log2-bucketed. Count and sum are read from
    /// the histogram — there are no separate counters to drift from it.
    fetch_hist: obs::Histogram,
}

/// Increment one operational counter, returning the previous value.
#[inline]
fn bump(counter: &AtomicU64) -> u64 {
    // relaxed-ok: operational statistics; readers tolerate staleness and
    // no other memory is published through these counters.
    counter.fetch_add(1, Ordering::Relaxed)
}

/// Read one operational counter.
#[inline]
fn peek(counter: &AtomicU64) -> u64 {
    // relaxed-ok: statistic read; consumers expect free-running values.
    counter.load(Ordering::Relaxed)
}

impl ServerStats {
    fn record_fetch(&self, elapsed: Duration) {
        self.fetch_hist
            .record(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Value of self-metric `idx` (index into [`SELF_METRICS`]).
    /// Latency buckets read cumulatively from the log2 histogram.
    /// The queue metrics (13/14) are answered in `fetch_one`, which can
    /// see the connection queue.
    fn value(&self, idx: usize) -> Option<u64> {
        Some(match idx {
            0 => peek(&self.pdu_in),
            1 => peek(&self.pdu_out),
            2 => peek(&self.pdu_err),
            3 => peek(&self.clients_current),
            4 => peek(&self.clients_total),
            5 => peek(&self.clients_rejected),
            6 => self.fetch_hist.snapshot().count(),
            7 => self.fetch_hist.snapshot().sum,
            8..=12 => self
                .fetch_hist
                .snapshot()
                .count_below_pow2(LATENCY_BUCKETS[idx - LATENCY_BUCKET_IDX].0),
            _ => return None,
        })
    }

    fn snapshot(&self) -> StatsSnapshot {
        let fetch_latency = self.fetch_hist.snapshot();
        StatsSnapshot {
            pdu_in: peek(&self.pdu_in),
            pdu_out: peek(&self.pdu_out),
            pdu_error: peek(&self.pdu_err),
            clients_current: peek(&self.clients_current),
            clients_total: peek(&self.clients_total),
            clients_rejected: peek(&self.clients_rejected),
            fetch_count: fetch_latency.count(),
            fetch_latency_ns_sum: fetch_latency.sum,
            fetch_latency,
        }
    }
}

/// A point-in-time copy of the server's operational counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub pdu_in: u64,
    pub pdu_out: u64,
    pub pdu_error: u64,
    pub clients_current: u64,
    pub clients_total: u64,
    pub clients_rejected: u64,
    pub fetch_count: u64,
    pub fetch_latency_ns_sum: u64,
    /// Full log2-bucket fetch service-time distribution. Mergeable
    /// across servers; quantiles via [`obs::HistSnapshot::quantile`].
    pub fetch_latency: obs::HistSnapshot,
}

/// Everything a worker needs to answer requests.
pub(crate) struct Shared {
    pmns: Pmns,
    sockets: Vec<Arc<SocketShared>>,
    config: WireConfig,
    stats: ServerStats,
    /// The listener core's queue and shutdown flag, visible to workers
    /// so `pmcd.queue.depth` can be fetched like any other metric and a
    /// live connection ends at its next read tick after shutdown.
    backlog: Arc<Backlog>,
    /// Registry exported as `pmcd.obs.*`: the process-global one by
    /// default, or a private registry when many servers share one
    /// process (the fleet simulator gives each host its own so host
    /// expositions stay independent and deterministic).
    registry: Option<Arc<obs::Registry>>,
}

impl Shared {
    /// Snapshot whichever obs registry this server exports.
    fn obs_snapshot(&self, t_ns: u64) -> obs::Snapshot {
        match &self.registry {
            Some(reg) => obs::Snapshot::take(reg, t_ns),
            None => obs::Snapshot::take_global(t_ns),
        }
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServerError {
    /// The caller's token lacks elevation — binding the PMCD is the
    /// privileged side of the export.
    Privilege(PrivilegeError),
    /// Binding the listener or spawning a thread failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Privilege(e) => write!(f, "privilege: {e}"),
            ServerError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Privilege(e) => Some(e),
            ServerError::Io(e) => Some(e),
        }
    }
}

impl From<PrivilegeError> for ServerError {
    fn from(e: PrivilegeError) -> Self {
        ServerError::Privilege(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// The networked PMCD. Binding requires elevation, exactly like spawning
/// the in-process daemon — the server is the privileged side of the
/// export.
pub struct PmcdServer {
    shared: Arc<Shared>,
    core: ListenerCore,
}

impl PmcdServer {
    /// Bind and start serving. `addr` is typically `127.0.0.1:0` (the
    /// chosen port is available from [`PmcdServer::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        token: &PrivilegeToken,
        config: WireConfig,
    ) -> Result<Self, ServerError> {
        Self::bind_with_registry(addr, pmns, sockets, token, config, None)
    }

    /// [`PmcdServer::bind`], but exporting `registry` as `pmcd.obs.*`
    /// instead of the process-global obs registry. The fleet simulator
    /// runs hundreds of servers in one process; a private registry per
    /// server keeps each host's exposition independent of its
    /// neighbours (and of the test harness's own instrumentation).
    pub fn bind_with_registry<A: ToSocketAddrs>(
        addr: A,
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        token: &PrivilegeToken,
        config: WireConfig,
        registry: Option<Arc<obs::Registry>>,
    ) -> Result<Self, ServerError> {
        token.require_elevated()?;
        assert!(config.workers >= 1, "server needs at least one worker");
        assert!(config.max_fetch_batch >= 1);
        let listener = TcpListener::bind(addr)?;
        let backlog = Backlog::new(config.pending);
        let shared = Arc::new(Shared {
            pmns,
            sockets,
            stats: ServerStats::default(),
            backlog: Arc::clone(&backlog),
            registry,
            config,
        });
        let workers = shared.config.workers;
        let core = ListenerCore::spawn(listener, backlog, Arc::clone(&shared), workers, "pmcd")?;
        Ok(PmcdServer { shared, core })
    }

    /// Bind as the *system* would (mints the elevated token itself) —
    /// mirrors `Pmcd::spawn_system`. Privilege cannot fail here, but the
    /// bind or thread spawns still can.
    pub fn bind_system<A: ToSocketAddrs>(
        addr: A,
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        config: WireConfig,
    ) -> Result<Self, ServerError> {
        Self::bind(addr, pmns, sockets, &PrivilegeToken::elevated(), config)
    }

    /// [`PmcdServer::bind_system`] with a private obs registry (see
    /// [`PmcdServer::bind_with_registry`]).
    pub fn bind_system_with_registry<A: ToSocketAddrs>(
        addr: A,
        pmns: Pmns,
        sockets: Vec<Arc<SocketShared>>,
        config: WireConfig,
        registry: Option<Arc<obs::Registry>>,
    ) -> Result<Self, ServerError> {
        Self::bind_with_registry(
            addr,
            pmns,
            sockets,
            &PrivilegeToken::elevated(),
            config,
            registry,
        )
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.core.local_addr()
    }

    /// Current operational counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Connections currently waiting for a free worker (also fetchable
    /// by any client as `pmcd.queue.depth`).
    pub fn queue_depth(&self) -> usize {
        self.shared.backlog.len()
    }

    /// The OpenMetrics exposition this server would serve right now —
    /// the same renderer that answers `Pdu::Exposition` and the HTTP
    /// scrape listener, so an in-process call and a TCP scrape agree
    /// byte for byte modulo the `# scrape_ts_ns` header.
    pub fn exposition(&self) -> String {
        exposition_text(&self.shared, unix_ns())
    }

    /// Shared state handle for sidecar listeners (see
    /// [`crate::scrape::ScrapeListener`]).
    pub(crate) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Stop accepting, finish in-flight requests, join every thread.
    /// Already-queued connections are still served (graceful drain).
    /// Returns at once when no client is connected; a worker serving a
    /// live client leaves at its next [`WireConfig::read_timeout`]
    /// tick. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.core.shutdown();
    }
}

impl Service for Shared {
    fn shed(&self, stream: TcpStream) {
        reject_busy(self, stream);
    }

    fn serve(&self, stream: TcpStream) {
        serve_client(self, stream);
    }
}

/// Shed load at the door: tell the client we are saturated and close.
fn reject_busy(shared: &Shared, mut stream: TcpStream) {
    bump(&shared.stats.clients_rejected);
    #[cfg(feature = "obs")]
    obs::instant!("pmcd.shed", shared.backlog.len() as u64);
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let frame = Pdu::Error {
        code: ErrorCode::Busy,
        detail: "server at capacity".into(),
    }
    .encode();
    let _ = stream.write_all(&frame);
}

/// Serve one client connection to completion. Never panics on client
/// misbehaviour: malformed frames, oversized lengths, and mid-request
/// disconnects all end *this* connection only.
fn serve_client(shared: &Shared, stream: TcpStream) {
    let stats = &shared.stats;
    bump(&stats.clients_current);
    let client_id = bump(&stats.clients_total) + 1;
    #[cfg(feature = "obs")]
    let _client_span = obs::span!("pmcd.client", client_id);
    serve_client_inner(shared, stream, client_id);
    // relaxed-ok: statistic decrement, pairs with the bump above.
    stats.clients_current.fetch_sub(1, Ordering::Relaxed);
}

fn serve_client_inner(shared: &Shared, mut stream: TcpStream, client_id: u64) {
    let cfg = &shared.config;
    let stats = &shared.stats;
    if stream.set_read_timeout(Some(cfg.read_timeout)).is_err()
        || stream.set_write_timeout(Some(cfg.write_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }

    let mut handshaken = false;
    loop {
        let pdu = match read_pdu(&mut stream, cfg.max_payload) {
            Ok(pdu) => pdu,
            Err(WireError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.backlog.is_shutting_down() {
                    return;
                }
                continue;
            }
            Err(WireError::Closed) | Err(WireError::Io(_)) => return,
            Err(WireError::Stalled) => {
                // Half a frame then silence: the stream cannot be
                // resynchronised, and the worker must not stay wedged.
                bump(&stats.pdu_err);
                let _ = write_pdu(
                    &mut stream,
                    &Pdu::Error {
                        code: ErrorCode::BadPdu,
                        detail: "stalled mid-frame".into(),
                    },
                );
                return;
            }
            Err(WireError::Pdu(e)) => {
                // Malformed input: tell the client why, then hang up.
                bump(&stats.pdu_err);
                let _ = write_pdu(
                    &mut stream,
                    &Pdu::Error {
                        code: ErrorCode::BadPdu,
                        detail: e.to_string(),
                    },
                );
                return;
            }
        };
        bump(&stats.pdu_in);
        // One span per served request: read to reply written. Dropped at
        // the bottom of this loop iteration, before the next blocking
        // read (which would otherwise dominate every trace).
        #[cfg(feature = "obs")]
        let _request_span = obs::span!("pmcd.request", client_id);

        // The CREDS exchange must come first and exactly once.
        let reply = if !handshaken {
            match pdu {
                Pdu::Creds { version }
                    if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) =>
                {
                    handshaken = true;
                    // Echo the client's version: a v2 peer keeps
                    // speaking v2 (v3 only adds an optional trailing
                    // field, so no downgrade logic is needed).
                    Pdu::CredsAck { version, client_id }
                }
                Pdu::Creds { version } => Pdu::Error {
                    code: ErrorCode::BadVersion,
                    detail: format!(
                        "server speaks versions {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}, \
                         client sent {version}"
                    ),
                },
                _ => Pdu::Error {
                    code: ErrorCode::BadPdu,
                    detail: "first pdu must be CREDS".into(),
                },
            }
        } else {
            handle_request(shared, pdu)
        };

        let fatal = matches!(
            reply,
            Pdu::Error {
                code: ErrorCode::BadPdu | ErrorCode::BadVersion,
                ..
            }
        );
        if matches!(reply, Pdu::Error { .. }) {
            bump(&stats.pdu_err);
        }
        if write_pdu(&mut stream, &reply).is_err() {
            return; // client went away mid-reply
        }
        bump(&stats.pdu_out);
        if fatal {
            return;
        }
    }
}

/// Answer one post-handshake request.
fn handle_request(shared: &Shared, pdu: Pdu) -> Pdu {
    let pmns = &shared.pmns;
    match pdu {
        Pdu::Lookup { name } => {
            if let Some(id) = pmns.lookup(&name) {
                Pdu::LookupResult { id: id.0 }
            } else if let Some(idx) = SELF_METRICS.iter().position(|(n, _, _)| *n == name) {
                Pdu::LookupResult {
                    id: SELF_METRIC_BASE + idx as u32,
                }
            } else if let Some(id) = selfmetrics::obs_lookup(&name) {
                Pdu::LookupResult { id: id.0 }
            } else {
                Pdu::Error {
                    code: ErrorCode::NoSuchMetric,
                    detail: name,
                }
            }
        }
        Pdu::Desc { id } => {
            if id >= OBS_METRIC_BASE {
                match selfmetrics::obs_desc(MetricId(id)) {
                    Some(desc) => Pdu::DescResult {
                        id,
                        semantics: encode_semantics(desc.semantics),
                        channel: 0,
                        direction: 0,
                        units: desc.units.into(),
                        name: desc.name,
                    },
                    None => bad_metric(id),
                }
            } else if id >= SELF_METRIC_BASE {
                let idx = (id - SELF_METRIC_BASE) as usize;
                match SELF_METRICS.get(idx) {
                    Some(&(name, units, semantics)) => Pdu::DescResult {
                        id,
                        semantics: encode_semantics(semantics),
                        channel: 0,
                        direction: 0,
                        units: units.into(),
                        name: name.into(),
                    },
                    None => bad_metric(id),
                }
            } else {
                match pmns.desc(MetricId(id)) {
                    Some(desc) => Pdu::DescResult {
                        id,
                        semantics: encode_semantics(desc.semantics),
                        channel: desc.channel as u32,
                        direction: encode_direction(desc.direction),
                        units: desc.units.into(),
                        name: desc.name.clone(),
                    },
                    None => bad_metric(id),
                }
            }
        }
        Pdu::Children { prefix } => {
            let mut names: Vec<String> = pmns
                .children(&prefix)
                .into_iter()
                .map(str::to_owned)
                .collect();
            names.extend(
                SELF_METRICS
                    .iter()
                    .filter(|(n, _, _)| prefix.is_empty() || n.starts_with(prefix.as_str()))
                    .map(|(n, _, _)| (*n).to_owned()),
            );
            names.extend(selfmetrics::obs_children(&prefix));
            Pdu::ChildrenResult { names }
        }
        Pdu::Instance => Pdu::InstanceResult {
            num_cpus: pmns.num_instances(),
            nest_cpus: pmns.nest_cpus().to_vec(),
        },
        Pdu::Fetch { trace_id, requests } => {
            // Echo the client's trace id as the span argument so the
            // drained rings stitch into one cross-process critical path
            // (obs::stitch matches client/server spans by this arg).
            #[cfg(feature = "obs")]
            let _server_span = obs::span!(obs::stitch::SERVER_FETCH_SPAN, trace_id);
            #[cfg(not(feature = "obs"))]
            let _ = trace_id;
            if requests.len() > shared.config.max_fetch_batch {
                return Pdu::Error {
                    code: ErrorCode::TooLarge,
                    detail: format!(
                        "fetch batch of {} exceeds limit {}",
                        requests.len(),
                        shared.config.max_fetch_batch
                    ),
                };
            }
            let start = Instant::now();
            // One registry snapshot answers every `pmcd.obs.*` id in the
            // batch: re-exporting per request would let counters advance
            // mid-fetch and return torn batches (count moved, sum not).
            let mut obs_snap: Option<obs::Snapshot> = None;
            let values = {
                #[cfg(feature = "obs")]
                let _fetch_span = obs::span!("pmcd.fetch", requests.len());
                requests
                    .iter()
                    .map(|&(id, inst)| fetch_one(shared, id, inst, &mut obs_snap))
                    .collect()
            };
            shared.stats.record_fetch(start.elapsed());
            Pdu::FetchResult { values }
        }
        Pdu::Exposition { trace_id } => {
            // Echo the scrape's fan-out child id as the render span's
            // arg so an aggregator's FanoutTrace charges this host's
            // server-side render time to the right slot (matched by
            // arg, so per-host clock skew cannot break the stitch).
            #[cfg(feature = "obs")]
            let _render_span =
                (trace_id != 0).then(|| obs::span!(obs::stitch::SERVER_SCRAPE_SPAN, trace_id));
            #[cfg(not(feature = "obs"))]
            let _ = trace_id;
            Pdu::ExpositionResult {
                text: exposition_text(shared, unix_ns()),
            }
        }
        // Anything else is a server-to-client PDU arriving backwards.
        other => Pdu::Error {
            code: ErrorCode::BadPdu,
            detail: format!("unexpected pdu {other:?}"),
        },
    }
}

fn bad_metric(id: u32) -> Pdu {
    Pdu::Error {
        code: ErrorCode::BadMetricId,
        detail: format!("metric id {id}"),
    }
}

/// Wall-clock nanoseconds since the Unix epoch, for the scrape
/// timestamp header.
pub(crate) fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Render the server's merged OpenMetrics exposition: the wire
/// self-metric table (queue gauges answered live from the accept
/// queue), then the process-wide obs registry under `pmcd.obs.`.
/// Exactly the document served to `Pdu::Exposition` and to the HTTP
/// scrape listener, so in-process and over-the-wire scrapes are
/// byte-identical modulo the `# scrape_ts_ns` header.
pub(crate) fn exposition_text(shared: &Shared, scrape_ts_ns: u64) -> String {
    use obs::openmetrics::{sanitize, MetricKind, OmSample, Value};
    // One Snapshot pairs the scalars with the scrape timestamp — the
    // same snapshot→samples path the store ingest and the archive
    // scheduler use, so every consumer stamps a registry read the same
    // way by construction.
    let snap = shared.obs_snapshot(scrape_ts_ns);
    let export = snap.scalars;
    let mut samples: Vec<OmSample> = Vec::with_capacity(SELF_METRICS.len() + export.len());
    for (idx, &(name, _units, semantics)) in SELF_METRICS.iter().enumerate() {
        let value = match idx {
            QUEUE_DEPTH_IDX => shared.backlog.len() as u64,
            QUEUE_SHED_IDX => peek(&shared.stats.clients_rejected),
            _ => shared.stats.value(idx).unwrap_or(0),
        };
        samples.push(OmSample::new(
            sanitize(name),
            match semantics {
                MetricSemantics::Counter => MetricKind::Counter,
                MetricSemantics::Instant => MetricKind::Gauge,
            },
            Value::Int(value),
        ));
    }
    for e in &export {
        samples.push(OmSample::new(
            sanitize(&format!("{}{}", selfmetrics::OBS_PREFIX, e.name)),
            match e.semantics {
                obs::metrics::ExportSemantics::Counter => MetricKind::Counter,
                obs::metrics::ExportSemantics::Instant => MetricKind::Gauge,
            },
            Value::Int(e.value),
        ));
    }
    obs::openmetrics::render(&samples, Some(scrape_ts_ns))
}

/// Mirror of the in-process daemon's fetch: nest values appear on each
/// socket's publisher CPU, other valid CPUs read zero, invalid instances
/// read `None`. Self-metrics accept any instance. `pmcd.obs.*` ids are
/// answered from `obs_snap`, a registry export taken at most once per
/// fetch batch so every obs value in a reply is from one coherent
/// snapshot.
fn fetch_one(
    shared: &Shared,
    id: u32,
    inst: u32,
    obs_snap: &mut Option<obs::Snapshot>,
) -> Option<u64> {
    if id >= OBS_METRIC_BASE {
        let snap = obs_snap.get_or_insert_with(|| shared.obs_snapshot(unix_ns()));
        return selfmetrics::obs_value_from(&snap.scalars, MetricId(id));
    }
    if id >= SELF_METRIC_BASE {
        return match (id - SELF_METRIC_BASE) as usize {
            QUEUE_DEPTH_IDX => Some(shared.backlog.len() as u64),
            QUEUE_SHED_IDX => Some(peek(&shared.stats.clients_rejected)),
            idx => shared.stats.value(idx),
        };
    }
    let pmns = &shared.pmns;
    let desc = pmns.desc(MetricId(id))?;
    if !pmns.valid_instance(InstanceId(inst)) {
        return None;
    }
    match pmns.socket_of_instance(InstanceId(inst)) {
        Some(socket) => {
            let shared_sock = shared.sockets.get(socket)?;
            if shared.config.fetch_touch {
                shared_sock.measurement_touch();
            }
            Some(shared_sock.counters().channel(desc.channel, desc.direction))
        }
        None => Some(0),
    }
}

/// Wire encoding of [`MetricSemantics`]: 0 = counter, 1 = instant.
pub fn encode_semantics(s: MetricSemantics) -> u8 {
    match s {
        MetricSemantics::Counter => 0,
        MetricSemantics::Instant => 1,
    }
}

/// Inverse of [`encode_semantics`].
pub fn decode_semantics(v: u8) -> Option<MetricSemantics> {
    match v {
        0 => Some(MetricSemantics::Counter),
        1 => Some(MetricSemantics::Instant),
        _ => None,
    }
}

/// Wire encoding of [`Direction`]: 0 = read, 1 = write.
pub fn encode_direction(d: Direction) -> u8 {
    match d {
        Direction::Read => 0,
        Direction::Write => 1,
    }
}

/// Inverse of [`encode_direction`].
pub fn decode_direction(v: u8) -> Option<Direction> {
    match v {
        0 => Some(Direction::Read),
        1 => Some(Direction::Write),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p9_arch::Machine;
    use p9_memsim::SimMachine;

    fn start_server(addr: &str, config: WireConfig) -> (SimMachine, PmcdServer) {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let pmns = Pmns::for_machine(m.arch());
        let sockets = (0..m.num_sockets()).map(|s| m.socket_shared(s)).collect();
        let server = PmcdServer::bind_system(addr, pmns, sockets, config).expect("bind server");
        (m, server)
    }

    #[test]
    fn bind_requires_elevation() {
        let m = SimMachine::quiet(Machine::summit(), 1);
        let pmns = Pmns::for_machine(m.arch());
        let sockets = vec![m.socket_shared(0)];
        let err = PmcdServer::bind(
            "127.0.0.1:0",
            pmns,
            sockets,
            &PrivilegeToken::user(),
            WireConfig::default(),
        );
        assert!(err.is_err());
    }

    /// With no client connected, shutdown is a wake-up, not a wait for
    /// a poll or read tick: it joins every thread within 10 ms, on a
    /// loopback and on an unspecified bind.
    #[test]
    fn shutdown_joins_all_threads() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let (_m, mut server) = start_server(addr, WireConfig::default());
            let t0 = Instant::now();
            server.shutdown();
            let took = t0.elapsed();
            assert!(took <= Duration::from_millis(10), "{addr}: {took:?}");
            server.shutdown(); // idempotent
        }
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let (_m, server) = start_server(
            "127.0.0.1:0",
            WireConfig {
                workers: 2,
                ..WireConfig::default()
            },
        );
        drop(server); // must not hang
    }

    #[test]
    fn self_metric_table_indexes_are_stable() {
        // The histogram arithmetic in ServerStats::value depends on this
        // ordering; lock it down.
        assert_eq!(SELF_METRICS[0].0, "pmcd.pdu.in");
        assert_eq!(SELF_METRICS[6].0, "pmcd.fetch.count");
        assert_eq!(
            SELF_METRICS[LATENCY_BUCKET_IDX].0,
            "pmcd.fetch.latency_ns.lt_1024"
        );
        assert_eq!(SELF_METRICS[12].0, "pmcd.fetch.latency_ns.lt_16777216");
        assert_eq!(SELF_METRICS[QUEUE_DEPTH_IDX].0, "pmcd.queue.depth");
        assert_eq!(SELF_METRICS[QUEUE_SHED_IDX].0, "pmcd.queue.shed");
        assert_eq!(SELF_METRICS.len(), 15);
        // The wire table's bucket entries are the shared spec's, in order.
        for (i, (_, name)) in LATENCY_BUCKETS.iter().enumerate() {
            assert_eq!(SELF_METRICS[LATENCY_BUCKET_IDX + i].0, *name);
        }
    }

    #[test]
    fn latency_histogram_buckets_cumulate() {
        let stats = ServerStats::default();
        stats.record_fetch(Duration::from_nanos(900)); // < 1024
        stats.record_fetch(Duration::from_nanos(60_000)); // < 131072
        stats.record_fetch(Duration::from_millis(100)); // above all buckets
        assert_eq!(stats.value(8), Some(1)); // lt_1024
        assert_eq!(stats.value(9), Some(1)); // lt_16384 (cumulative)
        assert_eq!(stats.value(10), Some(2)); // lt_131072
        assert_eq!(stats.value(12), Some(2)); // lt_16777216
        assert_eq!(stats.value(6), Some(3)); // fetch.count = +inf
        assert_eq!(stats.value(7), Some(900 + 60_000 + 100_000_000));
        assert_eq!(stats.value(99), None);
        // The snapshot's distribution agrees with the scalar export.
        let snap = stats.snapshot();
        assert_eq!(snap.fetch_count, 3);
        assert_eq!(snap.fetch_latency.count(), 3);
        assert_eq!(snap.fetch_latency.count_below_pow2(17), 2);
    }
}
