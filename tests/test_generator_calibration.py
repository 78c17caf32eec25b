"""Calibration tests: the synthetic datasets behave like the crawls.

The generators of :mod:`repro.data.generator` stand in for the paper's
Flixster and Flickr crawls.  Four properties make that substitution
faithful: more initiators anchor larger traces, delays are heavy-tailed,
per-edge evidence is sparse, and the graphs keep Table 1's relative
geometry.  These tests pin them down with the structural metrics of
:mod:`repro.graphs.metrics` and action-log statistics, so a generator
regression that silently breaks a paper shape fails here first, with a
named property, rather than in a slow benchmark.
"""

import pytest

from repro.data.propagation import PropagationGraph
from repro.graphs.metrics import (
    global_clustering_coefficient,
    reciprocity,
    summarize_graph,
)


class TestStructuralGeometry:
    """Table-1 relative geometry: flickr denser, flixster sparser."""

    def test_flickr_denser_than_flixster(self, flixster_mini, flickr_mini):
        assert (
            flickr_mini.graph.average_degree()
            > flixster_mini.graph.average_degree()
        )

    def test_graphs_are_communities_not_random(self, flixster_mini):
        """Community-structured: clustering far above the random baseline.

        For an Erdős–Rényi graph, transitivity ≈ density; the planted
        community structure should lift it well above that.
        """
        from repro.graphs.metrics import density

        graph = flixster_mini.graph
        assert global_clustering_coefficient(graph) > 3.0 * density(graph)

    def test_friendship_graphs_are_reciprocal(self, flixster_mini):
        # Flixster friendships are mutual; the generator encodes both
        # directions for a large share of ties (measured ~0.47 at the
        # mini scale — an order of magnitude above a sparse random
        # digraph's expectation).
        assert reciprocity(flixster_mini.graph) > 0.3

    def test_single_dominant_component(self, flixster_mini):
        summary = summarize_graph(flixster_mini.graph)
        assert summary.largest_component_fraction > 0.8

    def test_degree_tail_exists(self, flickr_mini, flixster_mini):
        """Hubs exist: max degree well above the average."""
        for dataset in (flickr_mini, flixster_mini):
            summary = summarize_graph(dataset.graph)
            assert summary.max_out_degree > 2.0 * summary.average_degree


class TestActionLogShape:
    def test_trace_sizes_heavy_tailed(self, flixster_mini):
        """A few viral traces dominate: max >> median trace size."""
        log = flixster_mini.log
        sizes = sorted(log.trace_size(action) for action in log.actions())
        median = sizes[len(sizes) // 2]
        assert sizes[-1] >= 4 * max(1, median)

    def test_initiators_anchor_trace_size(self, flixster_mini):
        """More initiators => larger traces.

        Checked as a rank correlation sign, not a fit: the mean trace
        size of the top initiator-count quartile exceeds that of the
        bottom quartile.
        """
        graph = flixster_mini.graph
        log = flixster_mini.log
        records = []
        for action in log.actions():
            propagation = PropagationGraph.build(graph, log, action)
            records.append(
                (len(propagation.initiators()), propagation.num_nodes)
            )
        records.sort(key=lambda pair: pair[0])
        quarter = max(1, len(records) // 4)
        bottom = [size for _, size in records[:quarter]]
        top = [size for _, size in records[-quarter:]]
        assert sum(top) / len(top) > sum(bottom) / len(bottom)

    def test_evidence_sparsity_regime(self, flixster_mini):
        """Far fewer per-edge observations than social edges.

        This is the regime where EM's per-edge estimates get noisy
        (support-1 edges) while CD's per-node aggregation stays robust
        — essential for Figures 3-6.
        """
        from repro.probabilities.lt_weights import count_propagations

        graph = flixster_mini.graph
        counts = count_propagations(graph, flixster_mini.log)
        observed_edges = len(counts)
        assert observed_edges < graph.num_edges
        # A substantial share of observed edges have support 1.
        support_one = sum(1 for count in counts.values() if count == 1)
        assert support_one / observed_edges > 0.2

    def test_users_contained_in_graph(self, flixster_mini, flickr_mini):
        """The data model's containment assumption (Section 4)."""
        for dataset in (flixster_mini, flickr_mini):
            for user in dataset.log.users():
                assert user in dataset.graph

    def test_delays_bursty(self, flixster_mini):
        """Heavy-tailed delays — most reactions
        much faster than the mean (stragglers inflate it)."""
        graph = flixster_mini.graph
        log = flixster_mini.log
        delays = []
        for action in log.actions():
            propagation = PropagationGraph.build(graph, log, action)
            for user in propagation.nodes():
                user_time = propagation.time_of(user)
                for parent in propagation.parents(user):
                    delays.append(user_time - propagation.time_of(parent))
        assert delays
        mean = sum(delays) / len(delays)
        below_mean = sum(1 for delay in delays if delay < mean)
        assert below_mean / len(delays) > 0.6
