"""The element rule and the two letter rules, at every entry point that reads one."""

import pytest

from ldlab import braid, homology, invariants, laver, magma, ybe
from ldlab.errors import DomainError, check_letters, element, free_letters

D3 = magma.dihedral_quandle(3)
A2 = laver.build_laver_table(2)
F = homology.Cochain(3, 2, (0,) * 9)

HOLES = {
    "mul-bool": lambda: D3.mul(True, 2),
    "mul-float": lambda: D3.mul(1.0, 2),
    "table-bool": lambda: magma.from_rows([[True]]),
    "table-float": lambda: magma.from_rows([[1.0]]),
    "left-inverse-bool": lambda: magma.left_inverse_op(D3, 1, True),
    "solution-bool": lambda: ybe.SetSolution(1, ((True, 1),)),
    "rho-bool": lambda: ybe.rack_to_solution(D3).rho(True, 1),
    "rho-float": lambda: ybe.rack_to_solution(D3).rho(1.0, 1),
    "general-op-bool": lambda: laver.build_general_table(3).op(1, True),
    "general-row-float": lambda: laver.build_general_table(3).row(1.0),
    "laver-op-bool": lambda: A2.op(True, 1),
    "laver-op-float": lambda: A2.op(1.0, 1),
    "laver-row-bool": lambda: A2.row(True),
    "period-float": lambda: laver.period(A2, 1.0),
    "project-bool": lambda: laver.project(2, True),
    "cochain-bool": lambda: F(True, 1),
    "cochain-float": lambda: F(1.0, 1),
    "theta-bool": lambda: homology.theta(D3, (True,)),
    "face-bool": lambda: homology.face_op(D3, "*", 1, (True, 2)),
    "word-bool": lambda: braid.BraidWord(3, (True,)),
    "word-float": lambda: braid.from_word(braid.BraidWord(3, (1.0,))),
    "sigma-bool": lambda: braid.sigma(3, True),
    "act-bool-letter": lambda: invariants.act_full(D3, (1, 2), (True,)),
    "act-float-letter": lambda: invariants.act_full(D3, (1, 2), (1.0,)),
    "shift-bool-colour": lambda: invariants.act_partial(invariants.IntegerShiftRack(),
                                                        (True, 2), (1,)),
    "free-reduce-bool": lambda: invariants.free_reduce((True, -1)),
    "free-colour-bool": lambda: invariants.act_partial(invariants.FreeConjugationRack(),
                                                       ((True,), (2,)), (1,)),
    "free-colour-float": lambda: invariants.act_partial(invariants.FreeConjugationRack(),
                                                        ((1.5,), (2,)), (1,)),
    "closure-no-strands": lambda: invariants.count_closure_colourings(D3, (), 0),
    "quandle-no-strands": lambda: invariants.fundamental_quandle((), 0),
    "wirtinger-no-strands": lambda: invariants.wirtinger_group((), 0),
}


@pytest.mark.parametrize("call", HOLES.values(), ids=HOLES.keys())
def test_non_elements_and_non_letters_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_rules_return_what_they_accept():
    assert element(3, 3) == 3
    assert check_letters([1, -2], 3) == (1, -2)
    assert check_letters((), 1) == ()
    assert free_letters([-(10 ** 20), 3]) == (-(10 ** 20), 3)
    assert braid.BraidWord(3, [1, -2]).letters == (1, -2)
