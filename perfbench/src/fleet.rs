//! `fleet_scrape` and `fleet_http`: `Fleet::spawn(64, seed)` behind an
//! `Aggregator` with two fan-out workers and otherwise default config.
//!
//! `fleet_scrape` times back-to-back `scrape_pass` calls. `fleet_http`
//! times dashboard refreshes, four after each pass: one `GET /metrics` and one
//! `GET /debug/series?…&derive=rate` over `serve_http`, so store reads
//! follow store writes. Both are closed loops on one client thread;
//! memsim and the in-process daemon are bypassed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fleet::debug::{parse_selector, render_series_data};
use fleet::{merge_parallel, merge_reference, Aggregator, AggregatorConfig, Fleet, HostScrape};
use obs::openmetrics::{self, OmSample, Value};
use pcp_wire::pdu::{decode_frame, DEFAULT_MAX_PAYLOAD};
use pcp_wire::{Pdu, WireClient};
use store::{Derivation, SeriesKey, Store, StoreConfig};

use crate::trace::Tracer;
use crate::Outcome;

pub const HOSTS: usize = 64;
pub const WORKERS: usize = 2;
/// Simulated time between passes.
const PASS_NS: u64 = 1_000_000_000;
/// The `/debug/series` query of a refresh: every host's simulated
/// traffic counter as a rate over the last ten passes.
const SERIES_METRIC: &str = "pmcd_obs_host_sim_bytes";
const SERIES_WINDOW_NS: u64 = 10 * PASS_NS;
/// A dashboard polls faster than the fleet is scraped.
const REFRESHES_PER_PASS: usize = 4;
/// Every this many passes `fleet_scrape` checks the merge against the
/// sequential reference on its own scrapes (untimed).
const MERGE_CHECK_EVERY: u64 = 16;

pub struct Rig {
    fleet: Fleet,
    agg: Aggregator,
    http: SocketAddr,
    /// Where the benchmark's own scrapes dial (a host, or its planted
    /// proxy).
    targets: Vec<SocketAddr>,
    pass: u64,
    t_ns: u64,
    /// Series in the merged document of the first pass; later passes
    /// must match it.
    merged_series: Option<usize>,
    /// The host section of the last pass.
    host_text: String,
    proxies: Vec<Proxy>,
}

impl Rig {
    /// Spawn the fleet, the aggregator and its HTTP sidecar. With
    /// `plant_delay`, every host connection (the aggregator's and the
    /// benchmark's own) goes through a proxy that holds each new
    /// connection for that long before dialing the host.
    pub fn setup(seed: u64, plant_delay: Option<Duration>) -> Result<Rig, String> {
        let fleet = Fleet::spawn(HOSTS, seed).map_err(|e| format!("spawn fleet: {e:?}"))?;
        let mut agg = Aggregator::new(
            &fleet,
            AggregatorConfig {
                workers: WORKERS,
                ..AggregatorConfig::default()
            },
        );
        let http = agg
            .serve_http("127.0.0.1:0")
            .map_err(|e| format!("serve http: {e:?}"))?;
        let mut targets: Vec<SocketAddr> = fleet.hosts().iter().map(|h| h.addr()).collect();
        let mut proxies = Vec::new();
        if let Some(delay) = plant_delay {
            for (i, t) in targets.iter_mut().enumerate() {
                let p = Proxy::spawn(*t, delay).map_err(|e| format!("proxy: {e}"))?;
                *t = p.addr;
                agg.retarget_host(i, p.addr);
                proxies.push(p);
            }
        }
        Ok(Rig {
            fleet,
            agg,
            http,
            targets,
            pass: 0,
            t_ns: 0,
            merged_series: None,
            host_text: String::new(),
            proxies,
        })
    }

    /// One scrape pass (timed by the caller) plus its checks. Returns
    /// the pass wall time in seconds.
    pub fn pass(&mut self, tracer: &Tracer, out: &mut Outcome) -> f64 {
        self.pass += 1;
        self.t_ns += PASS_NS;
        self.fleet.tick_traffic(self.pass);
        let op = tracer.next_op();
        let t0 = Instant::now();
        let report = tracer.span("fleet.scrape_pass", op, HOSTS as u64, || {
            self.agg.scrape_pass(self.t_ns)
        });
        let wall = t0.elapsed().as_secs_f64();
        out.stale += report.stale.len() as u64;
        out.host_scrapes += HOSTS as u64;
        if let Some(tr) = &report.trace {
            for (phase, name) in [
                ("fanout", "fleet.phase.fanout"),
                ("merge", "fleet.phase.merge"),
                ("ingest", "fleet.phase.ingest"),
            ] {
                tracer.record(name, op, 1, tracer.clock_ns(), tr.phase(phase));
            }
            tracer.record(
                "fleet.straggler",
                op,
                1,
                tracer.clock_ns(),
                tr.straggler_ns(),
            );
        }
        let expected = *self.merged_series.get_or_insert(report.merged_series);
        let problem = if report.scraped != HOSTS || !report.stale.is_empty() {
            Some(format!(
                "pass {}: scraped {} / {HOSTS}, stale {:?}",
                self.pass, report.scraped, report.stale
            ))
        } else if report.merged_series != expected {
            Some(format!(
                "pass {}: {} merged series, first pass had {expected}",
                self.pass, report.merged_series
            ))
        } else {
            match openmetrics::parse(&report.host_text) {
                Ok(doc) if doc.samples.len() == expected => None,
                Ok(doc) => Some(format!(
                    "host section parses to {} samples",
                    doc.samples.len()
                )),
                Err(e) => Some(format!("host section does not parse: {e}")),
            }
        };
        if let Some(p) = problem {
            out.fail(p);
        }
        self.host_text = report.host_text;
        wall
    }

    /// Closed loop of scrape passes for `dur`; each pass is one
    /// operation.
    pub fn run_passes(&mut self, dur: Duration, tracer: &Tracer, out: &mut Outcome) {
        let end = Instant::now() + dur;
        while Instant::now() < end {
            let wall = self.pass(tracer, out);
            out.attempted += 1;
            out.op_samples_ms.push(wall * 1e3);
            if self.pass.is_multiple_of(MERGE_CHECK_EVERY) {
                self.probe(tracer, out);
            }
        }
    }

    /// Closed loop of one pass and [`REFRESHES_PER_PASS`] refreshes
    /// for `dur`; each refresh is one operation, the pass is not timed.
    pub fn run_refreshes(&mut self, dur: Duration, tracer: &Tracer, out: &mut Outcome) {
        let end = Instant::now() + dur;
        while Instant::now() < end {
            self.pass(tracer, out);
            for _ in 0..REFRESHES_PER_PASS {
                self.refresh_once(tracer, out);
            }
        }
    }

    fn refresh_once(&self, tracer: &Tracer, out: &mut Outcome) {
        let op = tracer.next_op();
        let t0 = Instant::now();
        let got = tracer.span("fleet.http_refresh", op, 2, || self.refresh());
        let dt = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        out.op_samples_ms.push(dt * 1e3);
        if let Err(e) = got.and_then(|(metrics, series)| self.check_refresh(&metrics, &series)) {
            out.fail(format!("refresh after pass {}: {e}", self.pass));
        }
    }

    fn series_query(&self) -> String {
        format!("sel={SERIES_METRIC}&window={SERIES_WINDOW_NS}&derive=rate")
    }

    fn refresh(&self) -> Result<(String, String), String> {
        let metrics = http_get(self.http, "/metrics")?;
        let series = http_get(self.http, &format!("/debug/series?{}", self.series_query()))?;
        Ok((metrics, series))
    }

    /// `/metrics` carries this pass's timestamp and host section;
    /// `/debug/series` equals the in-process `Store::query` render.
    fn check_refresh(&self, metrics: &str, series: &str) -> Result<(), String> {
        let head = format!(
            "# scrape_ts_ns {}\n{}",
            self.t_ns,
            self.host_text.trim_end_matches("# EOF\n")
        );
        if !metrics.starts_with(&head) {
            return Err("/metrics does not carry the last pass's host section".into());
        }
        let sel = parse_selector(SERIES_METRIC)?;
        let data = self
            .agg
            .store()
            .query(&sel, self.t_ns.saturating_sub(SERIES_WINDOW_NS), self.t_ns)
            .map_err(|e| format!("store query: {e:?}"))?;
        if data.len() != HOSTS {
            return Err(format!("series query matched {} series", data.len()));
        }
        if series != render_series_data(&data, Some(Derivation::Rate)) {
            return Err("/debug/series differs from the in-process query".into());
        }
        Ok(())
    }

    /// Per-layer probes over the live fleet, all from outside the
    /// crates: [`Rig::scrape_hosts`], the refresh query on the
    /// aggregator's store, then [`Documents::probe`].
    pub fn probe(&mut self, tracer: &Tracer, out: &mut Outcome) {
        let op = tracer.next_op();
        if let Some(docs) = self.scrape_hosts(op, tracer, out) {
            self.query_store(op, tracer, out);
            docs.probe(op, tracer, out);
        }
    }

    /// Dial and scrape every host twice (cold, then warm) and keep the
    /// warm documents; `None` after a failed dial or scrape.
    pub fn scrape_hosts(&self, op: u64, tracer: &Tracer, out: &mut Outcome) -> Option<Documents> {
        let mut texts = Vec::with_capacity(HOSTS);
        for (i, addr) in self.targets.iter().enumerate() {
            let client = match tracer.span("pcp_wire.connect", op, 1, || WireClient::connect(*addr))
            {
                Ok(c) => c,
                Err(e) => {
                    out.fail(format!("probe connect host {i}: {e}"));
                    return None;
                }
            };
            let cold = tracer.span("pcp_wire.scrape_cold", op, 1, || client.scrape_exposition());
            let warm = tracer.span("pcp_wire.scrape_warm", op, 1, || client.scrape_exposition());
            match (cold, warm) {
                (Ok(_), Ok(text)) => texts.push(text),
                (a, b) => {
                    out.fail(format!("probe scrape host {i}: {a:?} / {b:?}"));
                    return None;
                }
            }
        }
        Some(Documents {
            hosts: self
                .fleet
                .hosts()
                .iter()
                .map(|h| h.name().to_owned())
                .collect(),
            texts,
            host_text: self.host_text.clone(),
            t_ns: self.t_ns,
        })
    }

    /// The refresh's `/debug/series` query, in process, on the
    /// aggregator's store.
    pub fn query_store(&self, op: u64, tracer: &Tracer, out: &mut Outcome) {
        let Ok(sel) = parse_selector(SERIES_METRIC) else {
            out.fail("series selector does not parse".into());
            return;
        };
        let store = self.agg.store();
        let t_ns = self.t_ns;
        for _ in 0..16 {
            let q = tracer.span("store.query", op, 1, || {
                store.query(&sel, t_ns.saturating_sub(SERIES_WINDOW_NS), t_ns)
            });
            if q.is_err() {
                out.fail("store query failed".into());
            }
        }
    }

    pub fn shutdown(self) {
        drop(self.agg);
        for p in self.proxies {
            p.stop();
        }
        drop(self.fleet);
    }
}

/// Every host's document of one probe, with what the aggregator had
/// merged at that point; probed after the fleet may be gone.
pub struct Documents {
    hosts: Vec<String>,
    texts: Vec<String>,
    host_text: String,
    t_ns: u64,
}

impl Documents {
    /// Codec round trips of a host document and of a 16-value fetch
    /// result, parse/merge/render of the documents and ingest into a
    /// fresh store. Checks the parallel merge against the sequential
    /// reference and the aggregator's host section against the merge
    /// of the same hosts' documents.
    pub fn probe(&self, op: u64, tracer: &Tracer, out: &mut Outcome) {
        let doc = Pdu::ExpositionResult {
            text: self.texts[0].clone(),
        };
        let fetch = Pdu::FetchResult {
            values: (0..16u64).map(|v| Some(v << 40)).collect(),
        };
        for pdu in [&doc, &fetch] {
            for _ in 0..32 {
                let frame = tracer.span("pcp_wire.pdu_encode", op, 0, || pdu.encode());
                let bytes = frame.len() as u64;
                let back = tracer.span("pcp_wire.pdu_decode", op, bytes, || {
                    decode_frame(&frame, DEFAULT_MAX_PAYLOAD)
                });
                tracer.set_last_work("pcp_wire.pdu_encode", bytes);
                if back.as_ref() != Ok(pdu) {
                    out.fail("PDU codec round trip differs".into());
                }
            }
        }

        let mut scrapes = Vec::with_capacity(HOSTS);
        for (host, text) in self.hosts.iter().zip(&self.texts) {
            let parsed = tracer.span("obs.om_parse", op, 0, || openmetrics::parse(text));
            match parsed {
                Ok(p) => {
                    tracer.set_last_work("obs.om_parse", p.samples.len() as u64);
                    scrapes.push(Some(HostScrape {
                        host: host.clone(),
                        samples: p.samples,
                    }));
                }
                Err(e) => {
                    out.fail(format!("host document does not parse: {e}"));
                    return;
                }
            }
        }
        let n_series: u64 = scrapes
            .iter()
            .flatten()
            .map(|s| s.samples.len() as u64)
            .sum();
        let merged = tracer.span("fleet.merge", op, n_series, || {
            merge_parallel(&scrapes, WORKERS)
        });
        let reference = merge_reference(&scrapes);
        let rendered = tracer.span("obs.om_render", op, merged.samples.len() as u64, || {
            openmetrics::render(&merged.samples, None)
        });
        if rendered != openmetrics::render(&reference.samples, None) {
            out.fail("parallel merge differs from the sequential reference".into());
        }
        if !self.host_text.is_empty() && series_keys(&self.host_text) != series_keys(&rendered) {
            out.fail("aggregator host section differs from the reference merge's series".into());
        }

        let fresh = Store::new(StoreConfig::default());
        let keyed: Vec<(SeriesKey, &OmSample)> =
            merged.samples.iter().map(|s| (series_key(s), s)).collect();
        let ingested = tracer.span("store.ingest", op, keyed.len() as u64, || {
            keyed
                .iter()
                .filter(|(k, s)| {
                    let Value::Int(v) = s.value else { return false };
                    fresh
                        .ingest(
                            k,
                            obs::metrics::ExportSemantics::Counter,
                            self.t_ns.max(1),
                            v,
                        )
                        .is_ok()
                })
                .count()
        });
        if ingested == 0 {
            out.fail("fresh store ingested nothing".into());
        }
    }
}

fn series_key(s: &OmSample) -> SeriesKey {
    let mut key = SeriesKey::new(s.name.clone());
    for (k, v) in &s.labels {
        key = key.with_label(k.clone(), v.clone());
    }
    key
}

/// The series (name + labels) a document carries, in order.
fn series_keys(doc: &str) -> Vec<SeriesKey> {
    openmetrics::parse(doc)
        .map(|d| d.samples.iter().map(series_key).collect())
        .unwrap_or_default()
}

/// One HTTP/1.1 GET on a fresh connection; the body of a 200 response.
pub fn http_get(addr: SocketAddr, target: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(response).map_err(|_| "response is not UTF-8".to_owned())?;
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err("response has no header terminator".into());
    };
    if !head.starts_with("HTTP/1.1 200 ") {
        return Err(format!("{target}: {}", head.lines().next().unwrap_or("")));
    }
    Ok(body.to_owned())
}

/// A planted slowdown: a TCP proxy in front of one host that holds each
/// accepted connection for `delay` before dialing the host, so every
/// `WireClient::connect` through it takes `delay` longer.
struct Proxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Proxy {
    fn spawn(upstream: SocketAddr, delay: Duration) -> std::io::Result<Proxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            for client in listener.incoming() {
                if flag.load(Ordering::Acquire) {
                    break;
                }
                let Ok(client) = client else { continue };
                conns.push(std::thread::spawn(move || relay(client, upstream, delay)));
                conns.retain(|c| !c.is_finished());
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(Proxy { addr, stop, thread })
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

fn relay(client: TcpStream, upstream: SocketAddr, delay: Duration) {
    std::thread::sleep(delay);
    let Ok(server) = TcpStream::connect(upstream) else {
        return;
    };
    let _ = server.set_nodelay(true);
    let _ = client.set_nodelay(true);
    let (Ok(mut c_in), Ok(mut s_out)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let up = std::thread::spawn(move || {
        let _ = std::io::copy(&mut c_in, &mut s_out);
        let _ = s_out.shutdown(std::net::Shutdown::Write);
    });
    let (mut s_in, mut c_out) = (server, client);
    let _ = std::io::copy(&mut s_in, &mut c_out);
    let _ = c_out.shutdown(std::net::Shutdown::Write);
    let _ = up.join();
}

/// Median `WireClient::connect` time to the first host, measured before
/// any proxy exists: the delay that doubles a connect.
pub fn connect_median(seed: u64) -> Result<Duration, String> {
    let fleet = Fleet::spawn(1, seed).map_err(|e| format!("spawn fleet: {e:?}"))?;
    let addr = fleet.hosts()[0].addr();
    let mut times = Vec::new();
    for _ in 0..21 {
        let t0 = Instant::now();
        let c = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        drop(c);
    }
    Ok(Duration::from_secs_f64(crate::stats::median(&times)))
}
