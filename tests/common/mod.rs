//! Test fixtures shared by the workspace integration tests.

use parbs_dram::{MemoryScheduler, Request, SchedView};
use parbs_obs::Event;

/// A deliberately broken batching scheduler: it marks every even-id request
/// (announcing the batch like PAR-BS does) but then *prioritizes unmarked
/// requests*, inverting Rule 2. The invariant checker must catch the
/// marked-first violation from the controller's event stream.
#[derive(Default)]
pub struct RuleTwoInverted {
    observing: bool,
    events: Vec<Event>,
}

impl MemoryScheduler for RuleTwoInverted {
    fn name(&self) -> &str {
        "broken"
    }

    fn pre_schedule(&mut self, queue: &mut [Request], view: &SchedView<'_>) -> bool {
        let announce_at = self.events.len();
        let mut marked = 0u32;
        for r in queue.iter_mut() {
            if !r.marked && r.id.0 % 2 == 0 {
                r.marked = true;
                marked += 1;
                if self.observing {
                    self.events.push(Event::Marked {
                        at: view.now,
                        request: r.id.0,
                        thread: r.thread.0,
                        rank: r.addr.bank / view.channel.banks_per_rank(),
                        bank: r.addr.bank,
                    });
                }
            }
        }
        if marked > 0 && self.observing {
            self.events.insert(
                announce_at,
                Event::BatchFormed {
                    at: view.now,
                    id: 1,
                    marked,
                    cap: None,
                    exclusive: false,
                    per_thread: Vec::new(),
                },
            );
        }
        marked > 0
    }

    fn priority_key(&self, req: &Request, _view: &SchedView<'_>) -> u128 {
        // Higher key = served first: unmarked requests win, ties oldest-first.
        (u128::from(!req.marked) << 64) | u128::from(u64::MAX - req.id.0)
    }

    fn set_observing(&mut self, enabled: bool) {
        self.observing = enabled;
        if !enabled {
            self.events.clear();
        }
    }

    fn drain_events(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.events);
    }
}
