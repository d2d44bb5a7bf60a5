//! Bounded structured-event ring buffer.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One structured event: a timestamp (simulation or wall micros — the
/// producer decides), the component that emitted it, an event kind, and a
/// free-form detail string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Producer-defined timestamp.
    pub t: u64,
    /// Emitting component, e.g. `"control"` or `"edge"`.
    pub component: String,
    /// Event class, e.g. `"restart"` or `"denied"`.
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
}

#[derive(Default)]
struct RingInner {
    /// Oldest-first buffer plus count of events dropped off the front.
    buf: VecDeque<Event>,
    dropped: u64,
}

/// Events a ring keeps; enough for the interesting tail of a month
/// simulation without holding the whole log.
pub const EVENT_CAPACITY: usize = 1024;

/// A bounded ring of [`Event`]s: pushing beyond [`EVENT_CAPACITY`] drops
/// the oldest entries (and counts them), so long runs keep the tail of
/// their event history at a fixed memory cost.
#[derive(Clone, Default)]
pub struct EventRing {
    inner: Arc<Mutex<RingInner>>,
}

impl EventRing {
    /// Append an event, evicting the oldest when full.
    pub fn push(&self, event: Event) {
        let mut inner = self.inner.lock().unwrap();
        if inner.buf.len() == EVENT_CAPACITY {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(event);
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().unwrap().buf.iter().cloned().collect()
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> Event {
        Event {
            t,
            component: "test".into(),
            kind: "tick".into(),
            detail: String::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let ring = EventRing::default();
        let pushed = EVENT_CAPACITY as u64 + 2;
        for t in 0..pushed {
            ring.push(ev(t));
        }
        let got: Vec<u64> = ring.events().iter().map(|e| e.t).collect();
        assert_eq!(got.len(), EVENT_CAPACITY);
        assert_eq!(got.first(), Some(&2));
        assert_eq!(got.last(), Some(&(pushed - 1)));
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn empty_ring() {
        let ring = EventRing::default();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }
}
