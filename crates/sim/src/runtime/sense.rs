//! RSSI power sensing and provider housekeeping ticks.
//!
//! DCN's initializing phase samples the RSSI register periodically to
//! find the channel's ambient level; the housekeeping tick lets
//! time-based threshold rules advance even on idle channels.

use super::node::Provider;
use super::observer::PowerSample;
use super::{Engine, TICK_PERIOD};
use crate::events::{Event, NodeId};
use nomc_units::{SimDuration, SimTime};

impl Engine<'_, '_, '_> {
    pub(crate) fn on_power_sense(&mut self, n: NodeId) {
        if !self.provider_wants_sensing(n, self.now) {
            return;
        }
        let node = &self.nodes[n];
        if !node.transmitting {
            let (freq, link) = (node.freq, node.link);
            let total = self.medium.sensed_total(n, freq, self.now);
            let reading = self.rssi_read(n, total.to_dbm());
            self.provider_mutate(n, |p, now| p.on_power_sense(reading, now));
            self.obs.power_sample(&PowerSample {
                node: n,
                link,
                reading,
                at: self.now,
            });
        }
        let interval = match &self.nodes[n].provider {
            Some(Provider::Dcn(adj)) => adj.config().power_sense_interval,
            _ => SimDuration::from_millis(1),
        };
        let at = self.now + interval;
        if at < SimTime::ZERO + self.sc.duration {
            self.queue.schedule(at, Event::PowerSense(n));
        }
    }

    pub(crate) fn on_provider_tick(&mut self, n: NodeId) {
        self.provider_mutate(n, |p, now| p.on_tick(now));
        let at = self.now + TICK_PERIOD;
        if at < SimTime::ZERO + self.sc.duration {
            self.queue.schedule(at, Event::ProviderTick(n));
        }
    }
}
