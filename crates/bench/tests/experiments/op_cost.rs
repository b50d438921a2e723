//! Every read and write of the real ARES client costs what
//! `ares_core::cost` says: its rounds (latency over `2d` at a constant
//! delay `d`), its messages and its payload bytes, and the servers store
//! the model's bytes. This is the steady state the model prices: no
//! reconfiguration, every list filled by `δ + 1` writes per object.

use ares_bench::servers;
use ares_harness::Scenario;
use ares_types::{ConfigId, Configuration, OpKind, Value};

/// Not a multiple of 3 or 5, so TREAS pads its elements.
const VALUE_LEN: usize = 1_000;
const OBJECTS: u32 = 2;

fn configurations() -> Vec<Configuration> {
    vec![
        Configuration::abd(ConfigId(0), servers(3)),
        Configuration::abd(ConfigId(0), servers(5)),
        Configuration::treas(ConfigId(0), servers(5), 3, 1),
        Configuration::treas(ConfigId(0), servers(5), 3, 2),
        Configuration::treas(ConfigId(0), servers(9), 5, 2),
    ]
}

#[test]
fn every_read_and_write_costs_what_the_model_says() {
    for cfg in configurations() {
        for d in [10, 100] {
            // One operation at a time, each well after the last returned.
            let gap = 20 * d;
            let mut at = 0;
            // The event cap turns an operation that never returns into a
            // failure that still reports the costs of those that did.
            let mut s = Scenario::new(vec![cfg.clone()])
                .clients([100])
                .delays(d, d)
                .seed(d)
                .event_limit(100_000);
            for i in 0..=cfg.delta().unwrap_or(0) as u64 {
                for obj in 0..OBJECTS {
                    s = s.write_at(at, 100, obj, Value::filler(VALUE_LEN, i));
                    at += gap;
                }
            }
            let measured_from = at;
            for i in 0..4u64 {
                for obj in 0..OBJECTS {
                    s = if (i + u64::from(obj)) % 2 == 0 {
                        s.write_at(at, 100, obj, Value::filler(VALUE_LEN, 100 + i))
                    } else {
                        s.read_at(at, 100, obj)
                    };
                    at += gap;
                }
            }
            let res = s.run();
            let what = format!("{:?} n={} d={d}", cfg.dap, cfg.n());
            for c in res.completions.iter().filter(|c| c.invoked_at >= measured_from) {
                let model = ares_core::cost(&cfg, c.kind, VALUE_LEN).expect("priced");
                assert_eq!(c.latency(), model.rounds * 2 * d, "{what}: {:?} rounds", c.kind);
                assert_eq!(c.messages, model.messages, "{what}: {:?} messages", c.kind);
                assert_eq!(c.payload_bytes, model.wire_bytes, "{what}: {:?} bytes", c.kind);
            }
            res.assert_complete_and_atomic();
            let stored = ares_core::cost(&cfg, OpKind::Write, VALUE_LEN).expect("priced");
            assert_eq!(
                res.total_storage_bytes(),
                u64::from(OBJECTS) * stored.stored_bytes,
                "{what}: stored bytes"
            );
        }
    }
}
