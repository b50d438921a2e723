//! Trip fixture for `retry-backoff`: the re-arm forwards the measured
//! retransmission timeout bare. An adaptive base is still a base — when
//! the estimate is stale (the load just rose) every retry fires at the
//! cadence that already proved too short.

impl ReadNextFrame {
    fn on_timer(&mut self, env: &Env) -> FStep {
        self.retries += 1;
        let mut step = FStep::sends(self.sends(env));
        step.timer = Some(env.rto);
        step
    }
}
