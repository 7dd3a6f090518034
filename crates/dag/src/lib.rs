//! The DAG store underlying all three consensus protocols.
//!
//! Delivered vertices are inserted as they arrive; a vertex becomes *live*
//! only once every vertex it references is live (causal completeness),
//! otherwise it waits in a pending buffer. The consensus layer asks four
//! questions of the store: how many live vertices a round has (for round
//! advancement), whether a strong path connects two vertices (for the
//! commit rule), what the unordered causal history of a committed leader
//! vertex is (for total ordering), and which late vertices a proposal has
//! no path to (for its weak edges).

pub mod order;
pub mod store;

pub use order::causal_order;
pub use store::{Dag, InsertOutcome};
