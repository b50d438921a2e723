//! Pass fixture for `retry-backoff`: the re-arm grows from the measured
//! retransmission timeout with the retry count.

impl ReadNextFrame {
    fn on_timer(&mut self, env: &Env) -> FStep {
        self.retries += 1;
        let mut step = FStep::sends(self.sends(env));
        step.timer = Some(env.rto << self.retries.min(6));
        step
    }
}
