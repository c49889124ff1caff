"""Behaviour lock: SHA-256 fingerprints of FuzzReports at fixed specs.

Each case runs one campaign and hashes its report, serialized as canonical
JSON (sorted keys, no whitespace) with every float written by `float.hex`,
so a single changed bit anywhere in the report changes the hash. The cases
cover all 18 properties; the n x n families also run the interior search at
`min_dim` 2 and 3. Refactors and speed-ups must leave every hash unchanged.
To regenerate after an intended change of behaviour, print
`fingerprint(run_case(case))` for each case and say why in CHANGES.md.

This module needs no pytest, so any interpreter can check the lock:

    PYTHONPATH=src python3 tests/fingerprint_cases.py

prints each mismatching case and exits 1 if there is one.
"""

from __future__ import annotations

import hashlib
import json
import sys

from balmat.core import TolerancePolicy
from balmat.genfuzz import FuzzContext, GenSpec, fuzz_campaign

import oracles


def fingerprint(report) -> str:
    text = json.dumps(oracles.canonical(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# (property, GenSpec kwargs, trials, FuzzContext kwargs)
CASES = [
    ("closure_add", dict(kind="symmetric2", seed=21), 200, {}),
    ("closure_add", dict(kind="perturbed", noise=0.2, seed=7), 200, {}),
    ("closure_mul", dict(kind="symmetric2", seed=22), 200, {}),
    ("closure_mul", dict(kind="perturbed", seed=8), 200, {}),
    ("closure_inverse", dict(kind="symmetric2", seed=23), 200, {}),
    ("closure_inverse", dict(kind="perturbed", noise=0.1, seed=9), 200, {}),
    ("closure_transpose", dict(kind="perturbed", n=4, noise=1.0, seed=24), 100, {}),
    ("closure_transpose", dict(kind="scaled_orthogonal", n=5, seed=10), 100, {}),
    # Above the largest compiled Householder kernel: draws run the loop.
    ("closure_transpose", dict(kind="scaled_orthogonal", n=20, seed=45), 20, {}),
    ("closure_scale", dict(kind="perturbed", n=3, noise=0.3, seed=25), 100, {}),
    ("det_nonzero", dict(kind="symmetric2", seed=27), 200, {}),
    ("det_nonzero", dict(kind="scaled_orthogonal", n=5, seed=11), 60, {}),
    ("det_nonzero", dict(kind="scaled_orthogonal", n=8, seed=12), 40, {}),
    ("det_nonzero", dict(kind="scaled_orthogonal", n=17, seed=45), 20, {}),
    ("det_nonzero", dict(kind="hadamard_like", n=8, seed=13), 40, {}),
    ("det_nonzero", dict(kind="perturbed", n=6, noise=0.01, seed=14), 40,
     dict(tol=TolerancePolicy(rtol=0.05, atol=1e-9))),
    ("estimator_exact", dict(kind="symmetric2", seed=26), 300, {}),
    ("estimator_exact", dict(kind="perturbed", noise=0.01, seed=15), 200,
     dict(tol=TolerancePolicy(rtol=0.2, atol=1e-9))),
    ("estimator_scaling", dict(kind="symmetric2", noise=0.05, seed=29), 200,
     dict(tol=TolerancePolicy(rtol=0.3, atol=1e-9))),
    ("emax_additivity", dict(kind="symmetric2", seed=35), 200, {}),
    ("trace_entry", dict(kind="symmetric2", seed=16), 200, {}),
    ("trace_entry", dict(kind="perturbed", seed=36), 200, {}),
    ("quadform_predict", dict(kind="symmetric2", seed=34), 200, {}),
    ("quadform_predict", dict(kind="symmetric2", noise=0.01, seed=17), 200,
     dict(tol=TolerancePolicy(rtol=0.2, atol=1e-9))),
    ("fairness_transfer", dict(kind="hadamard_like", n=8, seed=18), 100, {}),
    ("fairness_transfer", dict(kind="constant", n=3, noise=0.01, seed=37), 100,
     dict(tol=TolerancePolicy(rtol=0.2, atol=1e-9))),
    ("fairness_transfer", dict(kind="scaled_orthogonal", n=5, seed=19), 100, {}),
    ("one_fair_row", dict(kind="constant", n=4, seed=30), 60,
     dict(tol=TolerancePolicy(rtol=0.05, atol=1e-9), unfair_theta=1.0)),
    ("edos", dict(kind="scaled_orthogonal", n=6, seed=20), 100, {}),
    ("edos", dict(kind="perturbed", n=4, noise=0.05, seed=40), 100,
     dict(tol=TolerancePolicy(rtol=0.25, atol=1e-9))),
    ("interior_fair_corollary", dict(kind="constant", n=4, noise=0.01, seed=41), 50,
     dict(tol=TolerancePolicy(rtol=0.1, atol=1e-9))),
    ("interior_fair_corollary", dict(kind="hadamard_like", n=4, seed=42), 50, {}),
    # Probes the check body: every trial of the case above is not applicable.
    ("interior_fair_corollary", dict(kind="constant", n=6, noise=0.01, seed=48), 20,
     dict(tol=TolerancePolicy(rtol=0.1, atol=1e-9))),
    ("det_homomorphism", dict(kind="symmetric2", seed=38), 200,
     dict(tol=TolerancePolicy(rtol=0.2, atol=1e-9))),
    ("det_homomorphism_n", dict(kind="constant", n=3, seed=39), 60,
     dict(tol=TolerancePolicy(rtol=0.2, atol=1e-9))),
    ("det_homomorphism_n", dict(kind="constant", n=5, seed=43), 40,
     dict(tol=TolerancePolicy(rtol=0.2, atol=1e-9))),
] + [
    ("interior_conjecture", spec, trials, dict(min_dim=min_dim, **kwargs))
    for spec, trials, kwargs in (
        (dict(kind="scaled_orthogonal", n=5, seed=44), 40, {}),
        (dict(kind="scaled_orthogonal", n=8, seed=45), 12, {}),
        (dict(kind="hadamard_like", n=8, seed=46), 12, {}),
        (dict(kind="perturbed", n=6, noise=0.01, seed=47), 30,
         dict(tol=TolerancePolicy(rtol=0.05, atol=1e-9))),
        (dict(kind="perturbed", n=4, noise=0.2, seed=31), 40, {}),
    )
    for min_dim in (2, 3)
]  # fmt: skip


def run_case(case):
    prop, spec, trials, kwargs = case
    return fuzz_campaign(prop, GenSpec(**spec), trials, FuzzContext(**kwargs))


def case_id(case) -> str:
    prop, spec, trials, kwargs = case
    parts = [prop, spec["kind"], f"n{spec.get('n', 2)}", f"s{spec['seed']}"]
    if "min_dim" in kwargs:
        parts.append(f"d{kwargs['min_dim']}")
    return "-".join(parts)


#: Taken on the code before the single-scan interior search and the
#: raw-trail determinant, which left every hash unchanged; the corollary's
#: n=6 probe was taken on the code before the run-sum table.
EXPECTED = {
    "closure_add-symmetric2-n2-s21": "f41585ea2754589c93066a6201bbd9d88e1cfcfa787ee9c160353cca28e02b64",
    "closure_add-perturbed-n2-s7": "9d1452539a22308afe2087bd9b1a2682235a0644e74ef2b1255784101929467f",
    "closure_mul-symmetric2-n2-s22": "76cd464d949331e047c00dceb4369d8eed8db929504ad9d3ded4baf3a9be087d",
    "closure_mul-perturbed-n2-s8": "b2523813ebd6a7f9a4567e81144232df83172390a9912d256e5320b0ebc98d43",
    "closure_inverse-symmetric2-n2-s23": "1991472637da35092afc094030221ffb14bde21871d22aa60d3218aac1b0b250",
    "closure_inverse-perturbed-n2-s9": "31173dbc11ad650d44b1617aee6c91d4f66e73a993511f0164c23b065cc815bd",
    "closure_transpose-perturbed-n4-s24": "ca8685aa707656dd301265c8baff145175dd5544b33d0f52f2ff733f30c938cd",
    "closure_transpose-scaled_orthogonal-n5-s10": "5536c9f7e6b0dc69681b44d9a3aacd7f489e3ce61b2473cdc3b74f63b5972b40",
    # Taken on the loop before it became the plain reflector loop.
    "closure_transpose-scaled_orthogonal-n20-s45": "9fde6f88b75e8dceb2e79164e5eff24e9a98f6fa6d892376e51276357b1d11fb",
    "closure_scale-perturbed-n3-s25": "9af9a350dfd6b406a682e5afb145b9c79074cb77c9fd4a177a2a231af28a5573",
    "det_nonzero-symmetric2-n2-s27": "1cce441064b6b5387947c66d2afe26f94b02d84b1fc467b54278e3319c7f829d",
    "det_nonzero-scaled_orthogonal-n5-s11": "c595d50abb7a9282d8317e84402adff2ef15f0cc6f11913ff1a66c24ce9bbc3c",
    "det_nonzero-scaled_orthogonal-n8-s12": "cb2810634eb03844c7d96c7719f3f7fd0b78bd5e59dd2fed184625e13ce49706",
    "det_nonzero-scaled_orthogonal-n17-s45": "0476a72378654e2435451e1488cb5ede1082cc57e00cdb6cf59e666563c70d1c",
    "det_nonzero-hadamard_like-n8-s13": "2a77cfee6425bdb240729141ec686fd51715dc6a31627ec78be9a37b1a208dc0",
    "det_nonzero-perturbed-n6-s14": "73cadf43b37eec6d7d6a21754f0a69b95488311d067371868e1943fb68e7021d",
    "estimator_exact-symmetric2-n2-s26": "d280ea2d6c14e325b4e001fca4fd7bca86c71670ab009965acb1b4ee17d1c504",
    "estimator_exact-perturbed-n2-s15": "65aabbf5d92de3e6d04b2ef8d983e98c48b5aeec15b37f0e46d8a4e1f91d40c2",
    "estimator_scaling-symmetric2-n2-s29": "fc7eecd30e1837cd0a243a93663c7c1f2a9d875f28c65cb1942607b69f3a9e4b",
    "emax_additivity-symmetric2-n2-s35": "a6c9e6d982153cbb86ba5dc83a474d0fcfcc1bf13dc9d298b7cafcfe1eb4bb15",
    "trace_entry-symmetric2-n2-s16": "2673817b7e50cee9507031c65a3428197dc9a3213f3310019c2b3e362a728188",
    "trace_entry-perturbed-n2-s36": "30aa329e724f099ccadc1f38b4d40f8174b86cb5f6f4924213d6d9e9052c4cd9",
    "quadform_predict-symmetric2-n2-s34": "4b567f18cf565ca435920a2a5016b2aae86d643fb689cb797e10df465bc0b5bd",
    # Changed on purpose: `quadform_branch_select` now follows the sign of
    # b - a alone. At rtol=0.2 the old tie rule picked "b_lt_a" for 25 of
    # these 200 trials with b > a, all reported as violations; now 0.
    "quadform_predict-symmetric2-n2-s17": "b205f494930ad1f1c395b4b4cc721481bdb826ee2004faaa063145e04f51fce8",
    "fairness_transfer-hadamard_like-n8-s18": "d6dabfa71ed1905d7747157552990939fd00e10b577b0006a38abb90fb8502c5",
    "fairness_transfer-constant-n3-s37": "6a1a0ec7cf57ca56980b10dc8a85b710d39783522ca4a99e021dff47f50d2848",
    "fairness_transfer-scaled_orthogonal-n5-s19": "21f197ac739fbe165d3461da5733389dd380ca41fcf8910b7ee9049bf83551d4",
    "one_fair_row-constant-n4-s30": "4a893b922f033489fe5dc79dc921a9bf64613ea55f826d8b6fd2831efd4bf94d",
    "edos-scaled_orthogonal-n6-s20": "1c1ec937869e192eecd7b11687c67b0dcd1aeb00836f8c5eac33cf7529900e0c",
    "edos-perturbed-n4-s40": "b958d7fabb1aa3a72477b89f8ea06bd7982f994b3d0fbd5b1ad0efe62642658b",
    "interior_fair_corollary-constant-n4-s41": "ac6c16c1fa820bf8d0203cc6fe49adab775c548f75ff00b826ad17b0adf1f31b",
    "interior_fair_corollary-hadamard_like-n4-s42": "15edc105bfe764bd935e72c7d53b350ecdbb100a17b944c2a2f0942ebc882c11",
    "interior_fair_corollary-constant-n6-s48": "a39bf0a0328f2e11946e2e594e976d47875af03e74daccc5a9011398fae39651",
    "det_homomorphism-symmetric2-n2-s38": "4d52f7af85408103b99053a7ee81be713fa7d18403deadf2211f00b02f756b80",
    "det_homomorphism_n-constant-n3-s39": "aae2d660c17327a91d8c05f92455e2aba850285e89193f6df9b4ad5464bd9113",
    "det_homomorphism_n-constant-n5-s43": "bdd388545bc314deef04e709657e6231be746a8acabf72581b1df71cfe961d8e",
    "interior_conjecture-scaled_orthogonal-n5-s44-d2": "174eebac9980cc1373a8f7176feef4c954b5695794e36eb48fec6563fc29dd9c",
    "interior_conjecture-scaled_orthogonal-n5-s44-d3": "579e38b37922b9284e5c47f4e2c58878c153b03938f4da00f24ac575bfd85733",
    "interior_conjecture-scaled_orthogonal-n8-s45-d2": "43508b046fbbc3fe446d9c8b51341677a51ecc96caee44bf3d7cd6fb9bcb177b",
    "interior_conjecture-scaled_orthogonal-n8-s45-d3": "02c14793534768c5faef1743de56b312ecfe87f140e1fd537f36a9f2fc31f8ba",
    "interior_conjecture-hadamard_like-n8-s46-d2": "575283228718d11e829864081a1565f5c87ea0ae9663adaabf64084b5e392e0a",
    "interior_conjecture-hadamard_like-n8-s46-d3": "575283228718d11e829864081a1565f5c87ea0ae9663adaabf64084b5e392e0a",
    "interior_conjecture-perturbed-n6-s47-d2": "4c9641805c437e3b03eceb3e26ebd145de679db9b3ad70a1b0f148b4af11b11a",
    "interior_conjecture-perturbed-n6-s47-d3": "809bedf3a8179d495691da6cecbecf97442391fda55af50cea54736bd4b41151",
    "interior_conjecture-perturbed-n4-s31-d2": "a61663ed029daca843c9c190c4e2d00e79487efc4ea3a73ca3af7c795829541d",
    "interior_conjecture-perturbed-n4-s31-d3": "a61663ed029daca843c9c190c4e2d00e79487efc4ea3a73ca3af7c795829541d",
}


if __name__ == "__main__":
    bad = [case_id(c) for c in CASES if fingerprint(run_case(c)) != EXPECTED[case_id(c)]]
    for name in bad:
        print(f"mismatch: {name}")
    print(f"Python {sys.version.split()[0]}: {len(bad)} of {len(CASES)} fingerprints differ")
    sys.exit(1 if bad else 0)
