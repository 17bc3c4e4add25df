"""Windowed continuous queries over per-frame video detection traces.

Detection traces (object id, label, bounding box, feature vector per frame)
are modeled as relations with vector-valued columns, grouped into arrables
(one row per object, parallel ordered vectors), and queried with windowed
operators: similarity search and joins over feature vectors, consecutive-
appearance compression, counting, and net direction of motion.
"""

from .errors import VaqueryError
from .model import (Arrable, Column, ColumnKind, Relation, Schema, TRACE_SCHEMA,
                    kind_check, validate_tuple)
from .operators import (BBPattern, CctOption, Direction8, cct, cct_join, cjoin,
                        direction, group_count, hash_equi_join, nl_join, project,
                        r2a, select)
from .similarity import MatchCondition, MatchPolarity, Metric, smatch
from .windows import WindowKind, WindowManager, WindowSpec

__version__ = "0.1.0"

__all__ = [
    "VaqueryError", "ColumnKind", "Column", "Schema", "TRACE_SCHEMA", "Relation",
    "Arrable", "kind_check", "validate_tuple",
    "Metric", "MatchPolarity", "MatchCondition", "smatch",
    "CctOption", "Direction8", "BBPattern",
    "r2a", "cct", "select", "project", "nl_join", "cjoin", "cct_join",
    "hash_equi_join", "direction", "group_count",
    "WindowKind", "WindowSpec", "WindowManager",
    "__version__",
]
