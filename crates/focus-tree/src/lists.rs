//! Presorted attribute lists: the layout the tree fit searches and splits.
//!
//! SLIQ (Mehta, Agrawal, Rissanen, EDBT 1996) sorts each numeric attribute
//! once, at the root, and never again: a split stably partitions every
//! sorted list into the two children's lists, so each child's lists are
//! still sorted. Here a numeric attribute's list holds `(value, row, class)`
//! entries sorted by value, ties by row; a categorical attribute is one
//! `u32` code column indexed by row; and each node also keeps its rows in
//! ascending order, for the categorical counts and the node's class counts.

use crate::split::SplitRule;
use focus_core::data::{AttrType, LabeledTable};
use focus_exec::{map_indices, Parallelism};

/// One entry of a numeric attribute list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// The row's value of the attribute.
    pub(crate) value: f64,
    /// The row's index in the table.
    pub(crate) row: u32,
    /// The row's class.
    pub(crate) label: u32,
}

/// One attribute's view of a node's rows.
pub(crate) enum Column<'a> {
    /// The node's entries, sorted by value, ties by row.
    Num(&'a mut [Entry]),
    /// The whole table's code column, indexed by row.
    Cat { codes: &'a [u32], cardinality: u32 },
}

/// The rows of one tree node and every attribute's view of them, indexed
/// by attribute.
pub(crate) struct NodeLists<'a> {
    /// The node's rows, ascending.
    pub(crate) rows: &'a mut [u32],
    pub(crate) columns: Vec<Column<'a>>,
}

/// The storage behind the root's [`NodeLists`], built once per fit.
pub(crate) struct Presorted {
    rows: Vec<u32>,
    /// Per attribute: its sorted list (numeric) or its code column
    /// (categorical).
    columns: Vec<Owned>,
}

enum Owned {
    Num(Vec<Entry>),
    Cat { codes: Vec<u32>, cardinality: u32 },
}

impl Presorted {
    /// Sorts every numeric attribute of `data` and extracts every
    /// categorical one, one attribute per unit of work on `par`.
    pub(crate) fn new(data: &LabeledTable, par: Parallelism) -> Self {
        let n = u32::try_from(data.len()).expect("a tree fit indexes rows with u32");
        let schema = data.table.schema();
        let columns = map_indices(par, schema.len(), |attr| match &schema.attr(attr).ty {
            AttrType::Numeric => {
                let mut list: Vec<Entry> = (0..n)
                    .map(|r| Entry {
                        value: data.table.row(r as usize)[attr].as_num(),
                        row: r,
                        label: data.labels[r as usize],
                    })
                    .collect();
                // Stable: equal values keep ascending row order.
                list.sort_by(|a, b| a.value.partial_cmp(&b.value).expect("NaN attribute value"));
                Owned::Num(list)
            }
            AttrType::Categorical { cardinality } => Owned::Cat {
                codes: data.table.rows().map(|row| row[attr].as_cat()).collect(),
                cardinality: *cardinality,
            },
        });
        Self {
            rows: (0..n).collect(),
            columns,
        }
    }

    /// The root node: every row.
    pub(crate) fn root(&mut self) -> NodeLists<'_> {
        NodeLists {
            rows: &mut self.rows,
            columns: self
                .columns
                .iter_mut()
                .map(|c| match c {
                    Owned::Num(list) => Column::Num(list),
                    Owned::Cat { codes, cardinality } => Column::Cat {
                        codes,
                        cardinality: *cardinality,
                    },
                })
                .collect(),
        }
    }
}

/// Working memory for splitting nodes, reused by every node of one
/// subtree.
pub(crate) struct SplitBuffers {
    /// One bit per table row, set while the row is marked for the left
    /// child; all clear between splits.
    marked: Vec<u64>,
    entries: Vec<Entry>,
    rows: Vec<u32>,
}

impl SplitBuffers {
    /// Buffers for a fit over `n_rows` rows.
    pub(crate) fn new(n_rows: usize) -> Self {
        Self {
            marked: vec![0; n_rows.div_ceil(64)],
            entries: Vec::new(),
            rows: Vec::new(),
        }
    }
}

fn is_marked(bits: &[u64], row: u32) -> bool {
    bits[row as usize / 64] & (1 << (row % 64)) != 0
}

fn toggle(bits: &mut [u64], row: u32) {
    bits[row as usize / 64] ^= 1 << (row % 64);
}

/// Moves the items that go left to the front of `list`, keeping their
/// order and that of the rest, which `spare` holds in the meantime.
fn stable_partition<T: Copy>(list: &mut [T], spare: &mut Vec<T>, goes_left: impl Fn(&T) -> bool) {
    spare.clear();
    let mut n_left = 0;
    for i in 0..list.len() {
        let item = list[i];
        if goes_left(&item) {
            list[n_left] = item;
            n_left += 1;
        } else {
            spare.push(item);
        }
    }
    list[n_left..].copy_from_slice(spare);
}

impl<'a> NodeLists<'a> {
    /// Splits the node by `rule` into its left and right children. Every
    /// list is partitioned stably, so each child's lists stay sorted, and
    /// a row goes left exactly when [`SplitRule::goes_left`] holds for it.
    pub(crate) fn split(self, rule: &SplitRule, buffers: &mut SplitBuffers) -> (Self, Self) {
        let NodeLists { rows, columns } = self;
        let SplitBuffers {
            marked,
            entries,
            rows: spare_rows,
        } = buffers;
        // Mark the left rows. A threshold split's left rows are a prefix of
        // its own attribute's list, which therefore needs no partitioning.
        let (n_left, sorted_attr) = match rule {
            SplitRule::Threshold { attr, threshold } => {
                let Column::Num(list) = &columns[*attr] else {
                    panic!("threshold split on a categorical attribute")
                };
                let n_left = list.partition_point(|e| e.value < *threshold);
                for e in &list[..n_left] {
                    toggle(marked, e.row);
                }
                (n_left, Some(*attr))
            }
            SplitRule::Categories { attr, mask } => {
                let Column::Cat { codes, .. } = &columns[*attr] else {
                    panic!("categorical split on a numeric attribute")
                };
                let mut n_left = 0;
                for &r in rows.iter() {
                    if mask.contains(codes[r as usize]) {
                        toggle(marked, r);
                        n_left += 1;
                    }
                }
                (n_left, None)
            }
        };
        stable_partition(rows, spare_rows, |&r| is_marked(marked, r));
        let (mut children_l, mut children_r) = (
            Vec::with_capacity(columns.len()),
            Vec::with_capacity(columns.len()),
        );
        for (attr, column) in columns.into_iter().enumerate() {
            match column {
                Column::Num(list) => {
                    if sorted_attr != Some(attr) {
                        stable_partition(list, entries, |e| is_marked(marked, e.row));
                    }
                    let (l, r) = list.split_at_mut(n_left);
                    children_l.push(Column::Num(l));
                    children_r.push(Column::Num(r));
                }
                Column::Cat { codes, cardinality } => {
                    children_l.push(Column::Cat { codes, cardinality });
                    children_r.push(Column::Cat { codes, cardinality });
                }
            }
        }
        let (rows_l, rows_r) = rows.split_at_mut(n_left);
        for &r in rows_l.iter() {
            toggle(marked, r);
        }
        (
            NodeLists {
                rows: rows_l,
                columns: children_l,
            },
            NodeLists {
                rows: rows_r,
                columns: children_r,
            },
        )
    }
}
