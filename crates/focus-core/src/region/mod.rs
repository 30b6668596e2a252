//! Regions of the attribute space (Definition 3.1).
//!
//! A *region* is a subset of the attribute space `A(I)` identified by a
//! predicate. FOCUS works with two concrete region families:
//!
//! * [`BoxRegion`] — axis-parallel boxes (conjunctions of per-attribute
//!   interval / category-set constraints), optionally refined by a class
//!   label. Decision-tree leaves and clusters are boxes, and the overlay
//!   that forms the dt-GCR is box intersection.
//! * [`Itemset`] — a frequent itemset `X`, which identifies the region of
//!   all transactions containing `X`; its measure is the support of `X`.

mod boxr;
mod itemset;

pub use boxr::{AttrConstraint, BoxBuilder, BoxIndex, BoxRegion, CatMask};
pub use itemset::Itemset;
