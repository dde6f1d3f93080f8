"""The radius x angle meshes of the ratio, sup-norm and decomposition grids,
pinned bit for bit against their former hand-built constructions."""

import numpy as np
import pytest

from bergsmooth.decompose import _default_eval_points
from bergsmooth.errors import ContractError
from bergsmooth.flow import build_chart
from bergsmooth.geometry import make_domain
from bergsmooth.norms import _sup_grid_nodes
from bergsmooth.operators import collar_ratio_grid

DOMAINS = [("disk", None), ("annulus", 0.3), ("annulus", 0.5), ("annulus", 0.8)]


def _old_time_one_radius(chart, outer):
    a = 1.0 + chart.domain.rho**2
    E = np.exp(2 * a * chart.rate)
    if outer:
        return float(np.sqrt(a * E / (2 * E - (2 - a))))
    rho2 = chart.domain.rho**2
    return float(np.sqrt(a * E * rho2 / ((a - 2 * rho2) + 2 * rho2 * E)))


def _old_collar_ratio_grid(chart, n_r, n_th):
    dom = chart.domain
    inset = 8e-3
    th = np.linspace(0, 2 * np.pi, n_th, endpoint=False)
    if dom.kind == "disk":
        bands = [(np.exp(-chart.rate), 1.0 - inset)]
    else:
        bands = [(_old_time_one_radius(chart, True), 1.0 - inset),
                 (dom.rho + inset, _old_time_one_radius(chart, False))]
    nodes, weights = [], []
    for r_lo, r_hi in bands:
        r = np.linspace(r_lo, r_hi, n_r)
        w_r = np.full(n_r, r[1] - r[0])
        w_r[0] *= 0.5
        w_r[-1] *= 0.5
        R, TH = np.meshgrid(r, th, indexing="ij")
        nodes.append((R * np.exp(1j * TH)).ravel())
        weights.append(np.outer(w_r * r, np.full(n_th, 2 * np.pi / n_th)).ravel())
    nodes = np.concatenate(nodes)
    return nodes, np.concatenate(weights), chart.hit_time(nodes)


def _old_sup_grid_nodes(domain, n_r, n_th, delta):
    r = np.linspace(0.0, 1.0 - delta, n_r) if domain.kind == "disk" else \
        np.linspace(domain.rho + delta, 1.0 - delta, n_r)
    th = np.linspace(0.0, 2 * np.pi, n_th, endpoint=False)
    return (r[:, None] * np.exp(1j * th)[None, :]).ravel()


@pytest.mark.parametrize("kind,rho", DOMAINS)
def test_time_one_radii_are_the_closed_form_flow(kind, rho):
    chart = build_chart(make_domain(kind, rho=rho))
    if kind == "disk":
        assert chart.flow_radius(-1.0, 1.0) == np.exp(-chart.rate)
        return
    assert float(chart.flow_radius(-1.0, 1.0)) == _old_time_one_radius(chart, True)
    assert float(chart.flow_radius(-1.0, rho)) == _old_time_one_radius(chart, False)


@pytest.mark.parametrize("n_r,n_th", [(24, 48), (20, 40), (7, 9)])
@pytest.mark.parametrize("kind,rho", DOMAINS)
def test_collar_ratio_grid_bitwise(kind, rho, n_r, n_th):
    chart = build_chart(make_domain(kind, rho=rho))
    new = collar_ratio_grid(chart, n_r=n_r, n_th=n_th)
    old = _old_collar_ratio_grid(chart, n_r, n_th)
    for a, b in zip(new, old):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_collar_ratio_grid_rejects_ball(ball2):
    with pytest.raises(ContractError):
        collar_ratio_grid(build_chart(ball2))


@pytest.mark.parametrize("n_r,n_th,delta", [(200, 128, 1e-3), (50, 30, 1e-2)])
@pytest.mark.parametrize("kind,rho", DOMAINS)
def test_sup_grid_nodes_bitwise(kind, rho, n_r, n_th, delta):
    dom = make_domain(kind, rho=rho)
    assert np.array_equal(_sup_grid_nodes(dom, n_r, n_th, delta),
                          _old_sup_grid_nodes(dom, n_r, n_th, delta))


def test_default_eval_points_bitwise(disk):
    r = np.linspace(0.35, 1.0 - 2e-3, 28)
    th = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    old = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    assert np.array_equal(_default_eval_points(build_chart(disk)), old)
