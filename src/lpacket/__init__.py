"""Symbolic packet calculus for unitary-group parameters: component
groups, theta transfers, distinguished branching characters, and an
independent see-saw transport oracle that re-derives them."""

from .chars import BaseFieldData, CharE, CharSystem, conj_dual_sign
from .component import (
    GroupElement,
    SChar,
    SPhi,
    central_element,
    component_group,
    contragredient_char,
    enumerate_characters,
    evaluate,
    nu_twist,
    packet_side,
)
from .epsilon import (
    ConstantOne,
    HashedBackend,
    PsiTag,
    RecordingBackend,
    TableBackend,
    eps_half,
    key_table,
    term_key,
)
from .params import (
    GroupTag,
    HERMITIAN,
    LParameter,
    SKEW,
    Summand,
    char_atom,
    contragredient,
    mk_parameter,
    multiplicity_of,
    tensor_twist,
)
from .recipe import (
    GGPContext,
    MultiplicityReport,
    PacketMember,
    closed_form_pair,
    fj_eta,
    main_multiplicity,
    merged_case_eta,
    recover_phi2,
)
from .seesaw import (
    Instance,
    SeesawResult,
    SeesawTrace,
    merged_instance,
    random_instance,
    run_property_suite,
    seesaw_pairs,
)
from .theta import (
    ThetaContext,
    Up1Lift,
    Up2Lift,
    theta_up1_param,
    theta_up2_eps_prime,
    theta_up2_param,
)

__version__ = "0.1.0"
