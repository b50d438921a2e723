//! The ARES client actor: a session multiplexer for writers, readers
//! and reconfigurers.
//!
//! One actor type serves all three client roles (the paper separates the
//! sets `W`, `R`, `G`; a harness simply sends each actor only the
//! commands of its role). The actor hosts many logical client *sessions*
//! (see `crate::store`): each session executes its commands one at a
//! time — its subhistory stays well-formed, exactly the paper's
//! sequential client — while operations of *different* sessions run
//! concurrently as independent protocol state machines inside this
//! single actor. Incoming replies carry the [`OpId`] they answer and are
//! handed to that operation, whose leaves each keep only the replies of
//! their own rpcs; a timer token names its operation and the one leaf
//! that armed it.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::frames::{Done, Env, Input, Operation, ReadWrite, Recon, Shared, TransferMode};
use crate::msg::{ClientCmd, Msg};
use crate::store::session_writer;
use ares_sim::{Actor, Ctx};
use ares_types::{
    ConfigId, ConfigRegistry, ConfigSeq, ObjectId, OpCompletion, OpId, OpKind, ProcessId,
    SessionId, Time,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Tunables of a client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The genesis configuration id `c_0`.
    pub c0: ConfigId,
    /// How `update-config` moves data (plain ARES vs ARES-TREAS).
    pub transfer_mode: TransferMode,
    /// Paxos backoff unit.
    pub backoff_unit: Time,
    /// The objects this deployment manages; a `reconfig` migrates all of
    /// them during `update-config` (the paper emulates one object, whose
    /// id is 0). With none, a `reconfig` moves the chain alone.
    pub objects: Vec<ObjectId>,
}

impl ClientConfig {
    /// Plain-ARES client starting from `c0`, managing object 0.
    pub fn new(c0: ConfigId) -> Self {
        ClientConfig {
            c0,
            transfer_mode: TransferMode::Plain,
            backoff_unit: 50,
            objects: vec![ObjectId(0)],
        }
    }

    /// Declares the set of objects reconfigurations must migrate.
    #[must_use]
    pub fn with_objects(mut self, objects: Vec<ObjectId>) -> Self {
        self.objects = objects;
        self
    }

    /// Uses the ARES-TREAS direct state transfer during reconfigurations.
    #[must_use]
    pub fn with_direct_transfer(mut self) -> Self {
        self.transfer_mode = TransferMode::Direct;
        self
    }
}

/// The client's round-trip estimate (Jacobson/Karels with RFC 6298's
/// gains), in integer time units of `Ctx::now()` so a simulated run
/// stays bit-deterministic. Host policy, not protocol: it only decides
/// when an unanswered request is re-sent.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RttEstimator {
    /// `(srtt, rttvar)`; `None` before the first sample.
    est: Option<(Time, Time)>,
}

impl RttEstimator {
    pub(crate) fn sample(&mut self, rtt: Time) {
        self.est = Some(match self.est {
            None => (rtt, rtt / 2),
            Some((srtt, rttvar)) => ((7 * srtt + rtt) / 8, (3 * rttvar + srtt.abs_diff(rtt)) / 4),
        });
    }

    /// `srtt + 4·rttvar` clamped to `[floor, floor << 6]`; `floor`
    /// before the first sample.
    pub(crate) fn rto(&self, floor: Time) -> Time {
        self.est.map_or(floor, |(srtt, rttvar)| (srtt + 4 * rttvar).clamp(floor, floor << 6))
    }
}

/// One logical session's serial command lane.
#[derive(Default)]
struct SessionState {
    /// Commands awaiting their turn, with their pre-assigned `OpId::seq`.
    queue: VecDeque<(u64, ClientCmd)>,
    /// The session's one outstanding operation, if any.
    running: Option<OpId>,
}

/// One in-flight operation: its state machine plus bookkeeping.
struct OpState {
    session: SessionId,
    kind: OpKind,
    obj: ObjectId,
    invoked_at: Time,
    proto: Operation,
}

/// The ARES client process: a multiplexer of logical sessions.
pub struct ClientActor {
    /// The client's persistent `cseq` state variable (Alg. 7), shared by
    /// all sessions: it only ever grows (entries are consensus
    /// decisions), so completions merge into it in any order.
    cseq: ConfigSeq,
    sessions: HashMap<SessionId, SessionState>,
    inflight: HashMap<OpId, OpState>,
    shared: Shared,
}

impl ClientActor {
    /// Creates a client.
    pub fn new(registry: Arc<ConfigRegistry>, config: ClientConfig) -> Self {
        let cseq = ConfigSeq::genesis(config.c0);
        let shared = Shared {
            registry,
            config,
            rpc: 0,
            next_token: 0,
            timer_ops: HashMap::new(),
            rtt: RttEstimator::default(),
        };
        ClientActor { cseq, sessions: HashMap::new(), inflight: HashMap::new(), shared }
    }

    /// The client's current local configuration sequence.
    pub fn cseq(&self) -> &ConfigSeq {
        &self.cseq
    }

    /// Folds a completed operation's discovered sequence into the shared
    /// `cseq`. Completions of concurrent sessions arrive in arbitrary
    /// order, so this must be a join, not an overwrite: statuses only
    /// upgrade (P → F) and the chain only extends (configuration
    /// uniqueness across clients is consensus's guarantee, which
    /// `absorb` asserts).
    fn merge_cseq(&mut self, seq: &ConfigSeq) {
        for (i, e) in seq.iter().enumerate() {
            self.cseq.absorb(i, *e);
        }
    }

    /// Starts the next queued command of `sid`, if the session is idle.
    /// The operation is *invoked* (timestamped) here, not at submission,
    /// which is what keeps queued-up sessions well-formed.
    fn start_next(&mut self, sid: SessionId, ctx: &mut Ctx<'_, Msg>) {
        let Some(sess) = self.sessions.get_mut(&sid) else { return };
        if sess.running.is_some() {
            return;
        }
        let Some((seq, cmd)) = sess.queue.pop_front() else { return };
        // Deployment-wide side of the session-writer scheme: EVERY
        // client host must keep its id below 2^16, or it would alias
        // some other host's `(session << 16) | host` logical writer and
        // two concurrent writes could mint the same tag.
        assert!(
            ctx.pid().0 < crate::store::MAX_SESSIONS,
            "client host id {} is reserved for session writer ids (hosts must stay below 2^16)",
            ctx.pid()
        );
        let op = OpId { client: ctx.pid(), seq };
        sess.running = Some(op);
        let invoked_at = ctx.now();
        let cseq = self.cseq.clone();
        let mut env = Env {
            me: ctx.pid(),
            writer: session_writer(ctx.pid(), sid),
            op,
            shared: &mut self.shared,
            ctx,
        };
        let (kind, obj, proto) = match cmd {
            ClientCmd::Write { obj, value } => {
                let rw = ReadWrite::start(Some(value), obj, cseq, &mut env);
                (OpKind::Write, obj, Operation::ReadWrite(rw))
            }
            ClientCmd::Read { obj } => {
                let rw = ReadWrite::start(None, obj, cseq, &mut env);
                (OpKind::Read, obj, Operation::ReadWrite(rw))
            }
            ClientCmd::Recon { target } => {
                assert!(
                    env.shared.registry.try_get(target).is_some(),
                    "reconfig target {target} must be registered"
                );
                let objs = env.shared.config.objects.clone();
                let mode = env.shared.config.transfer_mode;
                let recon = Recon::start(target, cseq, objs, mode, &mut env);
                (OpKind::Recon, ObjectId(0), Operation::Recon(recon))
            }
        };
        self.inflight.insert(op, OpState { session: sid, kind, obj, invoked_at, proto });
    }

    /// Feeds `input` to operation `op`, and finishes the operation if
    /// that completes it. Stragglers for completed operations are
    /// dropped.
    fn drive(&mut self, op: OpId, input: Input<'_>, ctx: &mut Ctx<'_, Msg>) {
        let Some(st) = self.inflight.get_mut(&op) else { return };
        let writer = session_writer(ctx.pid(), st.session);
        let mut env = Env { me: ctx.pid(), writer, op, shared: &mut self.shared, ctx };
        if let Some(done) = st.proto.on(input, &mut env) {
            self.finish(op, done, ctx);
        }
    }

    fn finish(&mut self, op: OpId, done: Done, ctx: &mut Ctx<'_, Msg>) {
        let Some(st) = self.inflight.remove(&op) else { return };
        let mut c = OpCompletion::new(op, st.kind, st.invoked_at, ctx.now());
        c.obj = st.obj;
        c.tag = done.tag;
        c.value_digest = done.value_digest;
        c.installed = done.installed;
        self.merge_cseq(&done.seq);
        if ctx.tracing() {
            ctx.note(format!("{:?} {} completed (cseq now {})", c.kind, c.op, self.cseq));
        }
        ctx.complete(c);
        if let Some(sess) = self.sessions.get_mut(&st.session) {
            sess.running = None;
        }
        self.start_next(st.session, ctx);
    }
}

impl Actor<Msg> for ClientActor {
    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        use ares_sim::SimMessage;
        match msg {
            Msg::Invoke(inv) => {
                debug_assert_eq!(
                    inv.seq >> 32,
                    inv.session.0 as u64,
                    "Invoke seq must live in its session's partition"
                );
                self.sessions.entry(inv.session).or_default().queue.push_back((inv.seq, inv.cmd));
                self.start_next(inv.session, ctx);
            }
            reply => {
                let Some(op) = reply.op() else { return };
                self.drive(op, Input::Reply(from, &reply), ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Msg>) {
        let Some(op) = self.shared.timer_ops.remove(&token) else { return };
        self.drive(op, Input::Timer(token), ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::session_op_seq;
    use crate::ServerActor;
    use ares_sim::HostEffect;
    use ares_types::{ConfigEntry, Configuration, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `4 · backoff_unit` of [`ClientConfig::new`].
    const FLOOR: Time = 200;

    #[test]
    fn rto_is_the_floor_before_any_sample_and_never_leaves_its_clamp() {
        let mut rtt = RttEstimator::default();
        assert_eq!(rtt.rto(FLOOR), FLOOR);
        rtt.sample(3); // far below the floor
        assert_eq!(rtt.rto(FLOOR), FLOOR);
        for _ in 0..40 {
            rtt.sample(10_000_000); // far above the cap
            assert_eq!(rtt.rto(FLOOR), FLOOR << 6);
        }
        for rtt_us in [1, 7, 250, 4_000, 90_000, 12, 12, 12, 12, 12, 12, 12, 12] {
            rtt.sample(rtt_us);
            assert!((FLOOR..=FLOOR << 6).contains(&rtt.rto(FLOOR)), "{rtt:?}");
        }
    }

    #[test]
    fn rto_follows_srtt_plus_four_rttvar() {
        let mut rtt = RttEstimator::default();
        rtt.sample(2_000); // srtt = 2000, rttvar = 1000
        assert_eq!(rtt.rto(FLOOR), 6_000);
        rtt.sample(2_000); // rttvar decays by a quarter per steady sample
        assert_eq!(rtt.rto(FLOOR), 2_000 + 4 * 750);
        rtt.sample(4_000); // srtt = 2250, rttvar = (3·750 + 2000) / 4
        assert_eq!(rtt.rto(FLOOR), 2_250 + 4 * 1_062);
    }

    /// One client and servers 1..=5, each configuration a TREAS `[5, 3]`
    /// over them (quorum 4), hosted by hand through [`Ctx::detached`]:
    /// the test owns the clock and decides when replies and timers are
    /// delivered.
    struct Hosted {
        client: ClientActor,
        servers: Vec<ServerActor>,
        rng: StdRng,
        now: Time,
        /// Requests sent and not yet answered.
        outbox: Vec<(ProcessId, Msg)>,
        /// Every timer armed so far, as `(delay, token)`.
        armed: Vec<(Time, u64)>,
        completed: usize,
    }

    const CLIENT: ProcessId = ProcessId(100);

    impl Hosted {
        fn new() -> Self {
            Self::with_configs(1)
        }

        /// Configurations `c0 .. c(n-1)`, the client starting from `c0`.
        fn with_configs(n: u32) -> Self {
            let servers: Vec<ProcessId> = (1..=5).map(ProcessId).collect();
            let registry = ConfigRegistry::from_configs(
                (0..n).map(|c| Configuration::treas(ConfigId(c), servers.clone(), 3, 2)),
            );
            Hosted {
                client: ClientActor::new(registry.clone(), ClientConfig::new(ConfigId(0))),
                servers: servers.iter().map(|&s| ServerActor::new(s, registry.clone())).collect(),
                rng: StdRng::seed_from_u64(1),
                now: 0,
                outbox: Vec::new(),
                armed: Vec::new(),
                completed: 0,
            }
        }

        /// Runs one client handler and applies its effects; returns how
        /// many messages it sent.
        fn client(&mut self, f: impl FnOnce(&mut ClientActor, &mut Ctx<'_, Msg>)) -> usize {
            let mut ctx = Ctx::detached(CLIENT, self.now, &mut self.rng);
            f(&mut self.client, &mut ctx);
            let mut sent = 0;
            for effect in ctx.take_effects() {
                match effect {
                    HostEffect::Send { to, msg } => {
                        self.outbox.push((to, msg));
                        sent += 1;
                    }
                    HostEffect::SetTimer { delay, token } => self.armed.push((delay, token)),
                    HostEffect::Complete(_) => self.completed += 1,
                    HostEffect::Note(_) => {}
                }
            }
            sent
        }

        /// Invokes write number `n` of session 0.
        fn write(&mut self, n: u64) {
            let cmd = ClientCmd::Write { obj: ObjectId(0), value: Value::filler(64, n) };
            let seq = session_op_seq(SessionId(0), n);
            let invoke = Msg::Invoke(crate::Invoke { session: SessionId(0), seq, cmd });
            self.client(|c, ctx| c.on_message(ProcessId(0), invoke, ctx));
        }

        /// Invokes `reconfig(target)` as operation 0 of session 0.
        fn recon(&mut self, target: u32) {
            let cmd = ClientCmd::Recon { target: ConfigId(target) };
            let seq = session_op_seq(SessionId(0), 0);
            let invoke = Msg::Invoke(crate::Invoke { session: SessionId(0), seq, cmd });
            self.client(|c, ctx| c.on_message(ProcessId(0), invoke, ctx));
        }

        /// Keeps the first `kept` outstanding requests that `is_phase`
        /// picks and loses the rest of them; returns every request the
        /// phase sent.
        fn lose_all_but(
            &mut self,
            kept: usize,
            is_phase: fn(&Msg) -> bool,
        ) -> Vec<(ProcessId, Msg)> {
            let sent: Vec<_> = self.outbox.iter().filter(|(_, m)| is_phase(m)).cloned().collect();
            let mut seen = 0;
            self.outbox.retain(|(_, m)| {
                seen += usize::from(is_phase(m));
                !is_phase(m) || seen <= kept
            });
            sent
        }

        /// Advances the clock by `rtt`, then delivers the servers'
        /// replies to every outstanding request.
        fn answer_after(&mut self, rtt: Time) {
            self.now += rtt;
            for (to, request) in std::mem::take(&mut self.outbox) {
                let server = &mut self.servers[to.0 as usize - 1];
                let mut ctx = Ctx::detached(to, self.now, &mut self.rng);
                server.on_message(CLIENT, request, &mut ctx);
                for effect in ctx.take_effects() {
                    let HostEffect::Send { msg: reply, .. } = effect else { continue };
                    self.client(|c, ctx| c.on_message(to, reply, ctx));
                }
            }
        }

        /// Advances the clock to the deadline of the last armed timer
        /// and fires it; returns how many messages the handler sent.
        fn fire_timer(&mut self) -> usize {
            let (delay, token) = *self.armed.last().expect("a timer is armed");
            self.now += delay;
            self.client(|c, ctx| c.on_timer(token, ctx))
        }

        /// The delay of the last armed timer.
        fn last_delay(&self) -> Time {
            self.armed.last().expect("a timer is armed").0
        }
    }

    #[test]
    fn a_retransmitted_phase_yields_no_sample() {
        let mut h = Hosted::new();
        h.write(0);
        assert_eq!(h.last_delay(), FLOOR);
        assert_eq!(h.fire_timer(), 5, "nobody has answered: all five are asked again");
        assert_eq!(h.last_delay(), FLOOR << 1);
        // The replies arrive 2,000 after the first copy left. They could
        // answer either copy (Karn), so the next phase still starts from
        // the floor...
        h.answer_after(2_000 - FLOOR);
        assert_eq!(h.last_delay(), FLOOR);
        // ...whereas the same round trip on a phase sent once is a sample.
        h.answer_after(2_000);
        assert_eq!(h.last_delay(), 6_000);
    }

    #[test]
    fn after_slow_phases_the_timer_sits_above_the_round_trip() {
        // A loaded host: replies come back 10× the floor after the
        // request, and it delivers them before the (late) timers.
        let mut h = Hosted::new();
        h.write(0);
        for _ in 0..4 {
            h.answer_after(10 * FLOOR);
        }
        assert_eq!(h.completed, 1, "read-config, get-tag, put-data, read-config");
        // The next slow phase is armed above its round trip: a host
        // that fires timers on time has nothing to fire, and nothing
        // is sent twice.
        h.write(1);
        let timers = h.armed.len();
        assert!(h.last_delay() > 10 * FLOOR && h.last_delay() <= FLOOR << 6, "{:?}", h.armed);
        let sent_once = h.outbox.len();
        h.answer_after(10 * FLOOR);
        assert_eq!(h.armed.len(), timers + 1, "only the next phase armed a timer");
        assert_eq!(h.outbox.len(), sent_once, "the next phase's five requests, sent once");
    }

    #[test]
    fn same_round_trips_same_timers() {
        let run = || {
            let mut h = Hosted::new();
            for (n, rtt) in [150, 900, 40, 3_000, 260].into_iter().enumerate() {
                h.write(n as u64);
                while h.completed <= n {
                    h.answer_after(rtt);
                }
            }
            h.armed
        };
        assert_eq!(run(), run());
    }

    fn is_read_config(m: &Msg) -> bool {
        matches!(m, Msg::Cfg(crate::CfgMsg::ReadConfig { .. }))
    }

    fn is_write_config(m: &Msg) -> bool {
        matches!(m, Msg::Cfg(crate::CfgMsg::WriteConfig { .. }))
    }

    fn is_prepare(m: &Msg) -> bool {
        matches!(m, Msg::Con(ares_consensus::ConMsg::Prepare { .. }))
    }

    #[test]
    fn read_next_config_timer_resends_only_to_the_silent_servers() {
        let mut h = Hosted::new();
        h.write(0);
        // Servers 4 and 5 never get the request; 3 replies of quorum 4.
        let sent = h.lose_all_but(3, is_read_config);
        assert_eq!(sent.len(), 5);
        h.answer_after(10);
        assert!(h.outbox.is_empty(), "three replies are short of the quorum");
        assert_eq!(h.fire_timer(), 2);
        assert_eq!(h.outbox, sent[3..], "servers 4 and 5, the same request, the same rpc");
    }

    #[test]
    fn put_config_timer_resends_only_to_the_silent_servers() {
        let mut h = Hosted::with_configs(2);
        h.recon(1);
        // read-next-config, Prepare, Accept: then put-config(c0, ⟨c1, P⟩).
        for _ in 0..3 {
            h.answer_after(10);
        }
        let sent = h.lose_all_but(3, is_write_config);
        assert_eq!(sent.len(), 5);
        h.answer_after(10);
        assert!(!h.outbox.iter().any(|(_, m)| is_write_config(m)), "three acks of quorum 4");
        assert_eq!(h.fire_timer(), 2);
        assert_eq!(h.outbox, sent[3..], "servers 4 and 5, the same request, the same rpc");
    }

    #[test]
    fn a_lost_prepare_is_resent_and_the_reconfig_completes() {
        let mut h = Hosted::with_configs(2);
        h.recon(1);
        h.answer_after(10); // read-next-config: c0 has no successor yet
        let lost = h.lose_all_but(0, is_prepare);
        assert_eq!(lost.len(), 5, "the whole Prepare broadcast is lost");
        assert_eq!(h.fire_timer(), 5, "no acceptor has answered: all five are asked again");
        assert_eq!(h.outbox, lost, "the same Prepare, the same rpc");
        for _ in 0..16 {
            h.answer_after(10);
        }
        assert_eq!(h.completed, 1, "the reconfiguration installs c1");
        assert_eq!(h.client.cseq().last().cfg, ConfigId(1));
    }

    #[test]
    fn a_timer_token_its_leaf_no_longer_holds_sends_nothing() {
        let mut h = Hosted::new();
        h.write(0);
        let (_, read_next_token) = h.armed[0];
        h.answer_after(10); // read-config completes; get-tag's five requests are out
        assert_eq!(h.armed.len(), 2);
        h.now += FLOOR;
        let sent = h.client(|c, ctx| c.on_timer(read_next_token, ctx));
        assert_eq!(sent, 0, "the leaf that armed it has completed");
        assert_eq!(h.fire_timer(), 5, "get-tag's own token still resends");
    }

    #[test]
    fn a_consensus_round_yields_no_sample() {
        let mut h = Hosted::with_configs(2);
        h.recon(1);
        h.answer_after(2_000); // read-next-config: one round, one sample
        assert_eq!(h.last_delay(), 6_000, "Prepare leaves at the sampled RTO");
        h.answer_after(2_000); // promises
        h.answer_after(2_000); // accepts: c1 is decided
        assert!(h.outbox.iter().any(|(_, m)| is_write_config(m)), "put-config(c0, ⟨c1, P⟩)");
        assert_eq!(h.last_delay(), 6_000, "the proposal's two rounds took no sample");
    }

    #[test]
    fn a_next_config_pointer_to_an_unregistered_configuration_is_bottom() {
        let mut h = Hosted::new();
        h.write(0);
        // Server 1 names c99, which the registry does not hold; servers
        // 2–5 answer ⊥. Quorum 4.
        for (to, request) in std::mem::take(&mut h.outbox) {
            let Msg::Cfg(crate::CfgMsg::ReadConfig { base, rpc, op }) = request else {
                panic!("{request:?}")
            };
            if to == ProcessId(1) {
                let next = Some(ConfigEntry::finalized(ConfigId(99)));
                let reply = Msg::Cfg(crate::CfgMsg::NextC { base, rpc, next, op });
                h.client(|c, ctx| c.on_message(to, reply, ctx));
            } else {
                h.outbox.push((to, request));
            }
        }
        while h.completed == 0 {
            h.answer_after(10);
        }
        assert_eq!(h.client.cseq().len(), 1, "the walk stopped at c0");
        assert!(
            h.servers.iter().all(|s| s.next_config(ConfigId(0)).is_none()),
            "no server holds c99"
        );
    }
}
