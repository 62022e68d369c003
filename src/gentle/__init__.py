"""Derived-category combinatorics of finite-dimensional gentle algebras.

The package computes, for a gentle bound quiver algebra: its permitted and
forbidden threads with their sign data and matchings, homotopy strings and
bands, the associated complexes of projectives, Hom spaces in the bounded
homotopy category (by exact rational linear algebra), AG invariants of the
components containing mouth objects, and the classification of exceptional
cycles, verified against certificates and an independent brute-force
search.
"""

from .presentation import (Arrow, GentleAlgebra, GentleValidationError,
                           InternalCheckError, Path, Presentation,
                           PresentationSyntaxError, SignAssignment,
                           enumerate_sign_assignments, load_algebra,
                           parse_presentation, validate_gentle, with_signs)
from .threads import (Thread, ThreadTables, ThreadCycle, aag_cycles,
                      detect_critical_cycles, enumerate_threads)
from .words import (HomotopyBand, HomotopyLetter, HomotopyString, WordError,
                    canonical_band, canonical_string, make_band, make_string,
                    parse_word, thread_string, trivial_string, word_key)
from .complexes import (InjectiveComplex, RepComplex, minimize, nakayama_on_projectives,
                        perfect_replacement, shift, unfold_band, unfold_string)
from .hom import (GradedHomProfile, HomPair, chain_map_dim, cohomology_dims,
                  graded_profile, iso_indecomposable)
from .alp import CombMap, alp_basis, comb_map_to_path_map, double_maps, graph_maps, single_maps
from .exceptional import (ExceptionalCycle, MouthObject, SerreOrbit,
                          ag_invariants, brute_force_search, check_band_spherical,
                          classify_exceptional_cycles, cycle_equiv,
                          default_search_bounds, mouth_objects, serre_of_mouth,
                          verify_cycle)

__all__ = [name for name in dir() if not name.startswith("_")]
