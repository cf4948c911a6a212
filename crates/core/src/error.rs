//! Typed traversal failures.
//!
//! A traversal ([`try_bfs`](crate::try_bfs), [`try_sssp`](crate::try_sssp),
//! [`try_connected_components`](crate::try_connected_components)) that
//! cannot start — a source outside the graph, a graph too large for the
//! `u32` visitor encoding — or cannot complete — typically because a
//! semi-external adjacency read exhausted its retry budget — returns a
//! [`TraversalError`]. An abort carries the classified cause *and* the
//! partial run statistics accumulated before it, so callers can report how
//! far the run got.

use crate::result::TraversalStats;
use asyncgt_graph::Vertex;
use asyncgt_storage::StorageError;
use asyncgt_vq::{AbortReason, AbortedRun, RunStats};

/// Why a traversal failed, with the statistics of the run (boxed, so the
/// `Err` side of every `try_*` result stays small).
#[derive(Debug)]
pub enum TraversalError {
    /// A semi-external storage failure (retry-exhausted transient fault,
    /// on-media corruption, or a permanent device error).
    Storage(StorageError, Box<TraversalStats>),
    /// A handler aborted for a non-storage reason.
    Aborted(AbortReason, Box<TraversalStats>),
    /// The source vertex is not in `0..num_vertices`; nothing ran.
    InvalidSource {
        /// The rejected source.
        source: Vertex,
        /// Vertices in the graph.
        num_vertices: u64,
    },
    /// The graph has 2^32 − 1 or more vertices: visitors store vertex ids
    /// as `u32` (the paper's largest graph has 2^30); nothing ran.
    GraphTooLarge {
        /// Vertices in the graph.
        num_vertices: u64,
    },
}

impl TraversalError {
    /// Statistics accumulated before the failure (all zero for an input
    /// the traversal rejected up front).
    pub fn stats(&self) -> TraversalStats {
        match self {
            TraversalError::Storage(_, s) | TraversalError::Aborted(_, s) => **s,
            TraversalError::InvalidSource { .. } | TraversalError::GraphTooLarge { .. } => {
                TraversalStats::default()
            }
        }
    }

    /// The storage failure behind this abort, if that is what it was.
    pub fn storage_error(&self) -> Option<&StorageError> {
        match self {
            TraversalError::Storage(e, _) => Some(e),
            _ => None,
        }
    }
}

/// Reject an input no traversal can run on, before anything is allocated.
pub(crate) fn check_input(num_vertices: u64, sources: &[Vertex]) -> Result<(), TraversalError> {
    if num_vertices >= u32::MAX as u64 {
        return Err(TraversalError::GraphTooLarge { num_vertices });
    }
    match sources.iter().find(|&&s| s >= num_vertices) {
        Some(&source) => Err(TraversalError::InvalidSource {
            source,
            num_vertices,
        }),
        None => Ok(()),
    }
}

/// The one conversion from a runtime outcome to the public result: an
/// abort's cause classified — storage errors are recovered from the
/// type-erased reason by downcast; anything else stays opaque.
pub(crate) fn settle(outcome: Result<RunStats, AbortedRun>) -> Result<RunStats, TraversalError> {
    outcome.map_err(
        |AbortedRun { reason, stats }| match reason.downcast::<StorageError>() {
            Ok(e) => TraversalError::Storage(*e, Box::new(stats)),
            Err(reason) => TraversalError::Aborted(reason, Box::new(stats)),
        },
    )
}

impl std::fmt::Display for TraversalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraversalError::Storage(e, s) => write!(
                f,
                "traversal aborted by storage failure after {} visitors: {e}",
                s.visitors_executed
            ),
            TraversalError::Aborted(r, s) => write!(
                f,
                "traversal aborted after {} visitors: {r}",
                s.visitors_executed
            ),
            TraversalError::InvalidSource {
                source,
                num_vertices,
            } => write!(
                f,
                "source vertex {source} out of range ({num_vertices} vertices)"
            ),
            TraversalError::GraphTooLarge { num_vertices } => write!(
                f,
                "graph has {num_vertices} vertices; traversals store vertex ids as u32 \
                 and need fewer than 2^32 - 1"
            ),
        }
    }
}

impl std::error::Error for TraversalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraversalError::Storage(e, _) => Some(e),
            TraversalError::Aborted(r, _) => Some(r.as_ref()),
            TraversalError::InvalidSource { .. } | TraversalError::GraphTooLarge { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_reason_is_recovered_by_downcast() {
        let reason: AbortReason = Box::new(StorageError::Permanent {
            detail: "dead device".into(),
        });
        let aborted = AbortedRun {
            reason,
            stats: Default::default(),
        };
        let err = settle(Err(aborted)).unwrap_err();
        assert!(matches!(
            err,
            TraversalError::Storage(StorageError::Permanent { .. }, _)
        ));
        assert!(err.storage_error().is_some());
        assert!(err.to_string().contains("dead device"));
    }

    #[test]
    fn non_storage_reason_stays_opaque() {
        let aborted = AbortedRun {
            reason: "handler gave up".into(),
            stats: Default::default(),
        };
        let err = settle(Err(aborted)).unwrap_err();
        assert!(matches!(err, TraversalError::Aborted(..)));
        assert!(err.storage_error().is_none());
        assert!(err.to_string().contains("handler gave up"));
    }
}
