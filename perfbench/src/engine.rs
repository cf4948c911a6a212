//! Closed-loop load generator for the persistent engine: one thread keeps
//! a fixed number of queries outstanding and times each from its
//! `submit_*` call until its result is in hand.

use crate::trace::{timed, Tracer};
use crate::util::{Answer, Query};
use asyncgt::engine::{CcTicket, PathTicket, TraversalEngine};
use asyncgt::obs::Recorder;
use asyncgt::vq::SubmitError;
use asyncgt::{Graph, TraversalError};
use std::time::{Duration, Instant};

/// How often the load thread looks for finished queries. Sleeping (not
/// spinning) keeps the load thread off the workers' cores.
const POLL: Duration = Duration::from_micros(50);

enum Ticket<'env, G: Graph> {
    Path(PathTicket<'env, G>),
    Cc(CcTicket<'env, G>),
}

impl<G: Graph> Ticket<'_, G> {
    fn is_done(&self) -> bool {
        match self {
            Ticket::Path(t) => t.is_done(),
            Ticket::Cc(t) => t.is_done(),
        }
    }

    fn wait(self) -> Result<Answer, TraversalError> {
        match self {
            Ticket::Path(t) => t.wait().map(Answer::Path),
            Ticket::Cc(t) => t.wait().map(Answer::Cc),
        }
    }
}

fn submit<'env, G: Graph, R: Recorder>(
    eng: &TraversalEngine<'_, 'env, G, R>,
    q: Query,
) -> Result<Ticket<'env, G>, SubmitError> {
    match q {
        Query::Bfs(s) => eng.submit_bfs(&[s]).map(Ticket::Path),
        Query::Sssp(s) => eng.submit_sssp(&[s]).map(Ticket::Path),
        Query::Cc => eng.submit_cc().map(Ticket::Cc),
    }
}

struct Flight<'env, G: Graph> {
    seq: usize,
    query: Query,
    trace: u64,
    span: u64,
    start: Instant,
    submit: Duration,
    ticket: Ticket<'env, G>,
}

/// One finished (or refused) query.
pub struct Completed {
    pub seq: usize,
    pub query: Query,
    pub latency: Duration,
    /// Time spent inside the `submit_*` call.
    pub submit: Duration,
    pub answer: Result<Answer, String>,
}

/// Drive `eng` with at most `outstanding` queries in flight. `next(seq,
/// completed)` names query number `seq` or ends submission with `None`;
/// every query is reported to `done` once its result is in hand, and the
/// loop returns when the last one has been. Returns the loop's wall time.
pub fn closed_loop<'env, G: Graph, R: Recorder>(
    eng: &TraversalEngine<'_, 'env, G, R>,
    outstanding: usize,
    tr: Option<&Tracer>,
    mut next: impl FnMut(usize, usize) -> Option<Query>,
    mut done: impl FnMut(Completed),
) -> Duration {
    let start = Instant::now();
    let mut flights: Vec<Flight<'env, G>> = Vec::with_capacity(outstanding);
    let (mut seq, mut completed, mut submitting) = (0, 0, true);
    loop {
        while submitting && flights.len() < outstanding {
            let Some(query) = next(seq, completed) else {
                submitting = false;
                break;
            };
            let trace = tr.map_or(0, Tracer::next_id);
            let span = tr.map_or(0, Tracer::next_id);
            let t0 = Instant::now();
            let (res, dt) = timed(tr, "submit", trace, span, || submit(eng, query));
            match res {
                Ok(ticket) => flights.push(Flight {
                    seq,
                    query,
                    trace,
                    span,
                    start: t0,
                    submit: dt,
                    ticket,
                }),
                Err(e) => {
                    done(Completed {
                        seq,
                        query,
                        latency: dt,
                        submit: dt,
                        answer: Err(format!("submit refused: {e}")),
                    });
                    completed += 1;
                }
            }
            seq += 1;
        }
        if flights.is_empty() {
            break;
        }
        match flights.iter().position(|f| f.ticket.is_done()) {
            Some(i) => {
                let f = flights.swap_remove(i);
                let (answer, _) = timed(tr, "wait", f.trace, f.span, || f.ticket.wait());
                let end = Instant::now();
                if let Some(tr) = tr {
                    let name = match f.query {
                        Query::Bfs(_) => "query.bfs",
                        Query::Sssp(_) => "query.sssp",
                        Query::Cc => "query.cc",
                    };
                    tr.record(f.span, 0, f.trace, name, f.start, end);
                }
                done(Completed {
                    seq: f.seq,
                    query: f.query,
                    latency: end - f.start,
                    submit: f.submit,
                    answer: answer.map_err(|e| e.to_string()),
                });
                completed += 1;
            }
            None => std::thread::sleep(POLL),
        }
    }
    start.elapsed()
}
