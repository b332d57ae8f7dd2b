//! The [`EventSink`] trait plus structural sinks (collect, fan-out).

use std::any::Any;

use crate::Event;

/// A consumer of the observability event stream.
///
/// Sinks receive every event an instrumented component emits, in emission
/// order. The `Any` supertrait lets callers recover a concrete sink from a
/// `Box<dyn EventSink>` after a run (see [`downcast_sink`]), so results can
/// be extracted without threading concrete types through the simulator.
pub trait EventSink: Any {
    /// Observe one event.
    fn record(&mut self, event: &Event);
}

/// Recovers the concrete sink type from a boxed [`EventSink`], returning the
/// box unchanged on a type mismatch.
///
/// # Errors
///
/// Returns `Err(sink)` when the sink is not a `T`.
pub fn downcast_sink<T: EventSink>(sink: Box<dyn EventSink>) -> Result<Box<T>, Box<dyn EventSink>> {
    if (sink.as_ref() as &dyn Any).is::<T>() {
        let any: Box<dyn Any> = sink;
        Ok(any.downcast::<T>().expect("type was just checked"))
    } else {
        Err(sink)
    }
}

/// The simplest sink: buffers every event in memory, in order. Useful for
/// tests and for post-run rendering (e.g. ASCII timelines).
#[derive(Debug, Default)]
pub struct CollectSink {
    events: Vec<Event>,
}

impl CollectSink {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The events recorded so far.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    #[must_use]
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl EventSink for CollectSink {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Broadcasts each event to several child sinks, in push order.
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Box<dyn EventSink>>,
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink").field("sinks", &self.sinks.len()).finish()
    }
}

impl FanoutSink {
    /// Creates an empty fan-out.
    #[must_use]
    pub fn new() -> Self {
        FanoutSink::default()
    }

    /// Adds a child sink.
    pub fn push(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Number of child sinks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no child sinks are attached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Consumes the fan-out, returning its child sinks in push order.
    #[must_use]
    pub fn into_sinks(self) -> Vec<Box<dyn EventSink>> {
        self.sinks
    }
}

impl EventSink for FanoutSink {
    fn record(&mut self, event: &Event) {
        for sink in &mut self.sinks {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refresh(at: u64) -> Event {
        Event::Refresh { at, rank: 0 }
    }

    #[test]
    fn collect_sink_preserves_order() {
        let mut sink = CollectSink::new();
        for at in 0..5 {
            sink.record(&refresh(at));
        }
        let ats: Vec<u64> = sink.into_events().iter().map(Event::at).collect();
        assert_eq!(ats, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn fanout_broadcasts_to_all_children() {
        let mut fan = FanoutSink::new();
        fan.push(Box::new(CollectSink::new()));
        fan.push(Box::new(CollectSink::new()));
        fan.record(&refresh(7));
        for child in fan.into_sinks() {
            let Ok(collect) = downcast_sink::<CollectSink>(child) else {
                panic!("child is a CollectSink");
            };
            assert_eq!(collect.events().len(), 1);
        }
    }

    #[test]
    fn downcast_sink_round_trips_and_rejects_mismatches() {
        let boxed: Box<dyn EventSink> = Box::new(CollectSink::new());
        assert!(downcast_sink::<FanoutSink>(boxed).is_err());
        let boxed: Box<dyn EventSink> = Box::new(CollectSink::new());
        assert!(downcast_sink::<CollectSink>(boxed).is_ok());
    }
}
