//! Isolated layer probes: each times one layer through its public
//! functions with everything else taken away, so the floor of every
//! stage of an operation is known — GF kernel, Reed-Solomon, wire
//! codec, one server's state machine without sockets, the log without
//! the protocol, and the loopback socket without any ARES code.
//!
//! Every probe reports the median over batches of the mean time per
//! call within a batch: robust to a scheduler stall, fine-grained
//! enough for calls of tens of nanoseconds.

use crate::metrics::Report;
use crate::spec::{treas53, DELTA, K, N};
use ares_codes::{build_code, gf256, CodeParams, ErasureCode, Fragment};
use ares_core::store::{Store, StoreSession};
use ares_core::{shard, CfgMsg, Msg, OpTicket, ServerActor};
use ares_dap::{DapBody, DapMsg, Hdr, ListEntry};
use ares_net::codec::{decode_payload_bytes, encode_frame};
use ares_net::testing::LocalCluster;
use ares_sim::{Actor, Ctx};
use ares_types::{
    ConfigId, ConfigRegistry, Configuration, ObjectId, OpId, ProcessId, RpcId, Tag, Value,
};
use ares_wal::{FsyncPolicy, TempDir, Wal, WalCounters, WalOptions};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// How much work the probes do: the full suite takes a few seconds,
/// the smoke suite a fraction of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// ≥ 30 batches per probe.
    Full,
    /// A tenth of the calls; numbers are indicative only.
    Smoke,
}

impl Effort {
    fn batches(self) -> usize {
        match self {
            Effort::Full => 31,
            Effort::Smoke => 5,
        }
    }

    fn scale(self, calls: usize) -> usize {
        match self {
            Effort::Full => calls,
            Effort::Smoke => (calls / 10).max(1),
        }
    }
}

/// Median over `batches` batches of the mean seconds per call of `f`,
/// each batch making `calls` calls. `f` gets the call's index.
fn secs_per_call(batches: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..batches)
        .map(|b| {
            let began = Instant::now();
            for i in 0..calls {
                f(b * calls + i);
            }
            began.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    crate::stats::median(&per_batch)
}

fn op_id() -> OpId {
    OpId { client: ProcessId(100), seq: 1 }
}

fn rs53() -> Box<dyn ErasureCode> {
    build_code(CodeParams { n: N, k: K }).expect("[5,3] is a valid code")
}

/// Runs every isolated probe and records its metrics.
///
/// # Errors
///
/// Socket, cluster or log-directory errors.
pub fn run_all(effort: Effort, report: &mut Report) -> io::Result<()> {
    codes(effort, report);
    codec(effort, report);
    core(effort, report);
    wal(effort, report)?;
    report.set("net.loopback_rtt_us", loopback_rtt_us(effort)?);
    report.set("net.hop_rtt_us", hop_rtt_us(effort)?);
    Ok(())
}

/// `codes.*`: the GF(256) kernel and Reed-Solomon `[5, 3]`.
fn codes(effort: Effort, report: &mut Report) {
    let b = effort.batches();
    let code = rs53();

    let src = vec![0xA5u8; 64 * 1024];
    let mut dst = vec![0x5Au8; 64 * 1024];
    let secs = secs_per_call(b, effort.scale(200), |i| {
        gf256::mul_add_slice(black_box(&mut dst), black_box(&src), (i % 254 + 2) as u8);
    });
    report.set("codes.gf_mul_add_gib_s", src.len() as f64 / secs / (1u64 << 30) as f64);

    let value = |len: usize| Bytes::from(Value::filler(len, 7).as_bytes().to_vec());
    let (small, bulk, huge) = (value(256), value(64 * 1024), value(1 << 20));
    let encode = |v: &Bytes, calls: usize| {
        secs_per_call(b, effort.scale(calls), |_| {
            black_box(code.encode_value(black_box(v)));
        })
    };
    report.set("codes.rs53_encode_us_256b", encode(&small, 2000) * 1e6);
    report.set("codes.rs53_encode_us_64k", encode(&bulk, 50) * 1e6);
    report.set("codes.rs53_encode_mib_s_1m", 1.0 / encode(&huge, 4));

    // Decoding from the k systematic elements is a copy; from parity
    // elements it inverts the matrix and multiplies.
    let frags = code.encode_value(&bulk);
    let decode = |picked: &[Fragment]| {
        secs_per_call(b, effort.scale(50), |_| {
            black_box(code.decode(black_box(picked)).expect("k distinct elements decode"));
        })
    };
    report.set("codes.rs53_decode_us_64k_sys", decode(&frags[..K]) * 1e6);
    report.set("codes.rs53_decode_us_64k_par", decode(&frags[N - K..]) * 1e6);
}

fn hdr(obj: u32) -> Hdr {
    Hdr { cfg: ConfigId(0), obj: ObjectId(obj), rpc: RpcId(9), op: op_id() }
}

fn put(obj: u32, z: u64, frag: Fragment) -> Msg {
    Msg::Dap(DapMsg::new(hdr(obj), DapBody::TreasWrite(Tag::new(z, ProcessId(100)), frag)))
}

fn read_config() -> Msg {
    Msg::Cfg(CfgMsg::ReadConfig { base: ConfigId(0), rpc: RpcId(9), op: op_id() })
}

/// The coded element server 1 stores for a value of `len` bytes.
fn element(len: usize) -> Fragment {
    rs53().encode(Value::filler(len, 11).as_bytes()).swap_remove(0)
}

/// `net.codec.*`: encoding and decoding the frames an operation is
/// made of, with no socket.
fn codec(effort: Effort, report: &mut Report) {
    let b = effort.batches();
    let from = ProcessId(100);
    let encode_us = |msg: &Msg, calls: usize| {
        secs_per_call(b, effort.scale(calls), |_| {
            black_box(encode_frame(from, black_box(msg)));
        }) * 1e6
    };
    let decode_us = |msg: &Msg, calls: usize| {
        // A frame is a 4-byte length prefix and the payload the reader
        // thread hands to the decoder.
        let payload = Bytes::from(encode_frame(from, msg).split_off(4));
        secs_per_call(b, effort.scale(calls), |_| {
            black_box(decode_payload_bytes(black_box(&payload)).expect("own frame decodes"));
        }) * 1e6
    };
    let put_64k = put(0, 1, element(64 * 1024));
    // What one server answers a read of a 64 KiB object with: its
    // δ + 1 newest coded elements.
    let list_64k = Msg::Dap(DapMsg::new(
        hdr(0),
        DapBody::TreasList(
            (0..=DELTA as u64)
                .map(|z| ListEntry {
                    tag: Tag::new(z + 1, ProcessId(100)),
                    frag: Some(element(64 * 1024)),
                })
                .collect(),
        ),
    ));
    report.set("net.codec.encode_us_cfg", encode_us(&read_config(), 5000));
    report.set("net.codec.encode_us_put_256b", encode_us(&put(0, 1, element(256)), 5000));
    report.set("net.codec.encode_us_put_64k", encode_us(&put_64k, 200));
    report.set("net.codec.decode_us_put_64k", decode_us(&put_64k, 200));
    report.set("net.codec.decode_us_list_64k", decode_us(&list_64k, 200));
}

/// Delivers `msg` to `actor` the way a host does — a detached context,
/// effects drained — and hands the effects to `black_box`.
fn apply(actor: &mut ServerActor, rng: &mut StdRng, msg: Msg) {
    let mut ctx = Ctx::detached(ProcessId(1), 0, rng);
    actor.on_message(ProcessId(100), msg, &mut ctx);
    black_box(ctx.take_effects());
}

/// `core.*`: one `ServerActor` driven directly, no sockets or threads.
fn core(effort: Effort, report: &mut Report) {
    let b = effort.batches();
    let registry = ConfigRegistry::from_configs([treas53(0, 1)]);
    let mut rng = StdRng::seed_from_u64(1);
    let frag = element(256);
    let query = || Msg::Dap(DapMsg::new(hdr(0), DapBody::TreasQueryList));
    let server_with_writes = |writes: u64, rng: &mut StdRng| {
        let mut actor = ServerActor::new(ProcessId(1), registry.clone());
        for z in 1..=writes {
            apply(&mut actor, rng, put(0, z, frag.clone()));
        }
        actor
    };

    let mut fresh = server_with_writes(DELTA as u64 + 1, &mut rng);
    let us = secs_per_call(b, effort.scale(5000), |_| apply(&mut fresh, &mut rng, read_config()));
    report.set("core.apply_us_read_config", us * 1e6);
    let us = secs_per_call(b, effort.scale(5000), |_| apply(&mut fresh, &mut rng, query()));
    report.set("core.apply_us_query", us * 1e6);

    // The growth case: the same query once the object has been written
    // 1,000 times.
    let mut grown = server_with_writes(1000, &mut rng);
    let us = secs_per_call(b, effort.scale(500), |_| apply(&mut grown, &mut rng, query()));
    report.set("core.apply_us_query_list_1k", us * 1e6);

    // Puts go to 1,024 objects in turn, so no List grows long enough to
    // be what is measured.
    let mut sink = ServerActor::new(ProcessId(1), registry.clone());
    let us = secs_per_call(b, effort.scale(2000), |i| {
        apply(&mut sink, &mut rng, put((i % 1024) as u32, (i / 1024) as u64 + 1, frag.clone()));
    });
    report.set("core.apply_us_put_256b", us * 1e6);

    let routed = put(77, 1, frag);
    let secs = secs_per_call(b, effort.scale(100_000), |_| {
        black_box(shard::shard_of(black_box(&routed), 4));
    });
    report.set("core.shard_route_ns", secs * 1e9);
}

/// `wal.*` (isolated): the log on its own, in a temp dir.
fn wal(effort: Effort, report: &mut Report) -> io::Result<()> {
    let b = effort.batches();
    let dir = TempDir::new("ares-benchmark-wal")?;
    let open = |name: &str, fsync: FsyncPolicy| {
        let opts = WalOptions { fsync, ..WalOptions::default() };
        Wal::open(&dir.path().join(name), opts, Arc::new(WalCounters::default()))
    };
    let small = vec![0x42u8; 256];
    let bulk = vec![0x42u8; 64 * 1024];
    let mut failed = None;
    let mut append = |log: &mut Wal, payload: &[u8]| {
        if let Err(e) = log.append(payload) {
            failed.get_or_insert(e);
        }
    };

    let (mut log, _) = open("off-small", FsyncPolicy::Off)?;
    let secs = secs_per_call(b, effort.scale(2000), |_| append(&mut log, &small));
    report.set("wal.append_us_256b_off", secs * 1e6);

    let (mut log, _) = open("sync-small", FsyncPolicy::PerRecord)?;
    let secs = secs_per_call(b, effort.scale(10), |_| append(&mut log, &small));
    report.set("wal.append_sync_us_256b", secs * 1e6);

    let (mut log, _) = open("off-bulk", FsyncPolicy::Off)?;
    let secs = secs_per_call(b, effort.scale(50), |_| append(&mut log, &bulk));
    report.set("wal.append_mib_s_64k_off", bulk.len() as f64 / secs / (1u64 << 20) as f64);

    let records = effort.scale(50_000);
    let (mut log, _) = open("replay", FsyncPolicy::Off)?;
    for _ in 0..records {
        append(&mut log, &small);
    }
    drop(log);
    let began = Instant::now();
    let (_, recovery) = open("replay", FsyncPolicy::Off)?;
    let secs = began.elapsed().as_secs_f64();
    if recovery.records.len() != records {
        return Err(io::Error::other(format!(
            "replay returned {} of {records} records",
            recovery.records.len()
        )));
    }
    report.set("wal.replay_records_per_s", records as f64 / secs);

    let snapshot = vec![0x17u8; 1 << 20];
    let (mut log, _) = open("checkpoint", FsyncPolicy::Off)?;
    let mut checkpoint_failed = None;
    let secs = secs_per_call(b.min(11), 1, |_| {
        if let Err(e) = log.checkpoint(&snapshot) {
            checkpoint_failed.get_or_insert(e);
        }
    });
    report.set("wal.checkpoint_ms_1m", secs * 1e3);

    match failed.or(checkpoint_failed) {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// `net.loopback_rtt_us`: a 64-byte ping-pong over a raw loopback
/// `TcpStream` against an echo thread — the socket floor under every
/// hop, with no ARES code on the path.
fn loopback_rtt_us(effort: Effort) -> io::Result<f64> {
    const PING: usize = 64;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut buf = [0u8; PING];
        // Echo until the pinger hangs up.
        while peer.read_exact(&mut buf).is_ok() {
            peer.write_all(&buf)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut buf = [7u8; PING];
    let mut failed = None;
    let secs = secs_per_call(effort.batches(), effort.scale(500), |_| {
        let trip = stream.write_all(&buf).and_then(|()| stream.read_exact(&mut buf));
        if let Err(e) = trip {
            failed.get_or_insert(e);
        }
    });
    drop(stream);
    echo.join().map_err(|_| io::Error::other("echo thread panicked"))??;
    match failed {
        Some(e) => Err(e),
        None => Ok(secs * 1e6),
    }
}

/// Median latency of `ops` writes and then `ops` reads of 256 bytes,
/// one at a time from one session on an otherwise idle deployment of
/// `config`: `(read µs, write µs)`. What an operation costs when it
/// waits for nothing but its own round trips.
///
/// # Errors
///
/// Cluster bring-up or an operation failing.
pub fn quiet_latencies_us(config: Configuration, ops: usize) -> io::Result<(f64, f64)> {
    let cluster = LocalCluster::start(vec![config], [100])?;
    let mut session = cluster.store(100).open_session();
    let err = |e: ares_core::OpError| io::Error::other(e.to_string());
    let mut median_of = |write: bool| -> io::Result<f64> {
        let mut latencies = Vec::with_capacity(ops);
        for i in 0..ops {
            let ticket = if write {
                session.write(ObjectId(0), Value::filler(256, i as u64 + 1))
            } else {
                session.read(ObjectId(0))
            };
            latencies.push(ticket.map_err(err)?.wait().map_err(err)?.latency());
        }
        Ok(crate::stats::percentile_of(&mut latencies, 0.5))
    };
    let write_us = median_of(true)?;
    let read_us = median_of(false)?;
    cluster.shutdown();
    Ok((read_us, write_us))
}

/// `net.hop_rtt_us`: the latency of a quiet 256-byte write on a
/// one-server ABD deployment divided by its four rounds — one request
/// and its reply through codec, writer queue, socket, reader thread,
/// shard inbox and actor, with a quorum of one. The single-node
/// baseline the multi-server latencies are multiples of.
fn hop_rtt_us(effort: Effort) -> io::Result<f64> {
    const ROUNDS: f64 = 4.0;
    let one_server = Configuration::abd(ConfigId(0), vec![ProcessId(1)]);
    let (_, write_us) = quiet_latencies_us(one_server, effort.scale(1000))?;
    Ok(write_us / ROUNDS)
}
