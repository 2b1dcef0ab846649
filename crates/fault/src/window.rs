//! Time-window indexes a [`PlanInjector`](crate::PlanInjector) builds
//! once from its plan, so the per-packet questions "is this node in an
//! outage?", "how long does this NI stall?" and "how much jitter may
//! this link add?" are lookups rather than scans of the whole plan.

use genima_net::NicId;
use genima_sim::{Dur, Time};

use crate::plan::LinkJitter;

/// A piecewise-constant function of simulated time: its value at `t`
/// is the sum of the values of every `[from, until)` window containing
/// `t`. Empty windows (`from >= until`) contain no instant and add
/// nothing.
#[derive(Debug)]
pub(crate) struct Windows {
    /// Strictly increasing instants at which the value changes.
    starts: Vec<Time>,
    /// `values[i]` holds on `[starts[i], starts[i + 1])`; the value
    /// before `starts[0]` is zero.
    values: Vec<u64>,
}

impl Windows {
    /// Indexes `(from, until, value)` windows.
    pub(crate) fn build(windows: impl IntoIterator<Item = (Time, Time, u64)>) -> Windows {
        // Each window adds its value at `from` and takes it back at
        // `until`. Sorting openings before closings at the same instant
        // keeps the running sum from dipping below zero.
        let windows = windows.into_iter();
        let mut edges: Vec<(Time, bool, u64)> = Vec::with_capacity(2 * windows.size_hint().0);
        for (from, until, v) in windows {
            if from < until {
                edges.push((from, false, v));
                edges.push((until, true, v));
            }
        }
        edges.sort_unstable();
        let mut index = Windows {
            starts: Vec::with_capacity(edges.len()),
            values: Vec::with_capacity(edges.len()),
        };
        let mut value = 0u64;
        for group in edges.chunk_by(|a, b| a.0 == b.0) {
            for &(_, closes, v) in group {
                value = if closes { value - v } else { value + v };
            }
            if index.values.last().copied().unwrap_or(0) != value {
                index.starts.push(group[0].0);
                index.values.push(value);
            }
        }
        index
    }

    /// The value at `t`.
    pub(crate) fn at(&self, t: Time) -> u64 {
        match self.starts.partition_point(|&s| s <= t) {
            0 => 0,
            i => self.values[i - 1],
        }
    }
}

/// One [`Windows`] per node, indexed by [`NicId`]; nodes no window
/// names read zero.
#[derive(Debug)]
pub(crate) struct NodeWindows(Vec<Windows>);

impl NodeWindows {
    /// Indexes `(node, from, until, value)` windows per node.
    pub(crate) fn build(
        windows: impl IntoIterator<Item = (NicId, Time, Time, u64)>,
    ) -> NodeWindows {
        let mut per_node: Vec<Vec<(Time, Time, u64)>> = Vec::new();
        for (node, from, until, v) in windows {
            let i = node.index();
            if per_node.len() <= i {
                per_node.resize_with(i + 1, Vec::new);
            }
            per_node[i].push((from, until, v));
        }
        NodeWindows(per_node.into_iter().map(Windows::build).collect())
    }

    /// The value of `node`'s windows at `t`.
    pub(crate) fn at(&self, node: NicId, t: Time) -> u64 {
        self.0.get(node.index()).map_or(0, |w| w.at(t))
    }
}

/// The largest jitter bound of any rule on each directed link, dense
/// over the nodes the rules name; other links read zero.
#[derive(Debug)]
pub(crate) struct LinkMax {
    ports: usize,
    /// Indexed `src * ports + dst`.
    max: Vec<Dur>,
}

impl LinkMax {
    /// Folds jitter rules into a per-link maximum.
    pub(crate) fn build(rules: &[LinkJitter]) -> LinkMax {
        let ports = rules
            .iter()
            .map(|j| j.src.index().max(j.dst.index()) + 1)
            .max()
            .unwrap_or(0);
        let mut max = vec![Dur::ZERO; ports * ports];
        for j in rules {
            let slot = &mut max[j.src.index() * ports + j.dst.index()];
            *slot = Dur::max(*slot, j.max);
        }
        LinkMax { ports, max }
    }

    /// The jitter bound of `src → dst`.
    pub(crate) fn get(&self, src: NicId, dst: NicId) -> Dur {
        let (s, d) = (src.index(), dst.index());
        if s < self.ports && d < self.ports {
            self.max[s * self.ports + d]
        } else {
            Dur::ZERO
        }
    }
}
