"""The benchmark's tracer (perfbench/tracer.py) patches rrt entry points by
module and attribute name.  These tests load it unchanged and fail when a
patch site is renamed or removed, or when mha_forward stops returning
(Tensor, attention-or-None), instead of a crash in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from rrt import model
from rrt.autograd import Tensor

from helpers import make_pair, tiny_config
from oracles import tsum

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def site_value(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)


def all_sites(tracer):
    return [site for _, sites, _ in tracer.LAYERS for site in sites]


def test_every_patch_site_exists_and_is_restored():
    tracer = load_tracer()
    before = {site: site_value(*site) for site in all_sites(tracer)}
    t = tracer.Tracer()
    t.install()
    try:
        for site in before:
            assert site_value(*site) is not before[site], f"{site} was not patched"
    finally:
        t.uninstall()
    for site, original in before.items():
        assert site_value(*site) is original, f"{site} was not restored"


def test_traced_forward_and_backward_count_model_spans():
    tracer = load_tracer()
    cfg = tiny_config()
    params = model.init_params(cfg, seed=26)
    pairs = [make_pair(np.random.default_rng(26), cfg, n_a=2, n_b=3)]
    t = tracer.Tracer()
    t.install()
    try:
        logits = model.forward_pair_logits(params, cfg, pairs)
        tsum(logits).backward()
    finally:
        t.uninstall()
    assert t.calls["model.forward_pair_logits"] == 1
    assert t.calls["model.transformer_layer"] == cfg.layers
    assert t.calls["model.mha_forward"] == cfg.layers
    # every layer but the last outputs all seq_len rows; the last, the CLS row
    assert t.bytes_out["model.mha_forward"] == ((cfg.layers - 1) * cfg.seq_len + 1) * cfg.d * 4
    assert t.calls["autograd.backward"] == 1


def test_mha_forward_returns_output_and_optional_attention():
    cfg = tiny_config()
    params = model.init_params(cfg, seed=27)
    z = Tensor(np.random.default_rng(27).standard_normal((1, cfg.seq_len, cfg.d)).astype(np.float32))
    mask = np.ones((1, cfg.seq_len), dtype=bool)
    out, attn = model.mha_forward(params.layer(0), cfg, z, mask)
    assert isinstance(out, Tensor) and out.shape == (1, cfg.seq_len, cfg.d)
    assert attn is None
    _, attn = model.mha_forward(params.layer(0), cfg, z, mask, return_attn=True)
    assert attn.shape == (1, cfg.h, cfg.seq_len, cfg.seq_len)
