"""Static WCET analysis (the aiT role in the paper's workflow)."""

from .accesses import DataAccess, resolve_all, resolve_data_access
from .analyzer import (
    WCETError,
    WCETResult,
    analysis_counters,
    analyze_wcet,
    clear_analysis_caches,
)
from .annotations import (
    AnnotationSet,
    MemoryArea,
    format_annotations,
    generate_annotations,
    parse_annotations,
)
from .cacheanalysis import (
    AH,
    FM,
    NC,
    CacheAnalysis,
    CacheAnalysisResult,
    HierarchyCacheResult,
    PackedCacheDomain,
    analyze_hierarchy,
)
from .cfg import BasicBlock, CFGError, FunctionCFG, build_all_cfgs, \
    build_function_cfg
from .ipet import IPETError, IPETResult, solve_function_ipet
from .loops import Loop, LoopError, compute_dominators, find_natural_loops, \
    resolve_bounds
from .stackdepth import StackAnalysisError, max_stack_depth, stack_region

__all__ = [
    "DataAccess", "resolve_all", "resolve_data_access",
    "WCETError", "WCETResult", "analyze_wcet",
    "analysis_counters", "clear_analysis_caches",
    "AnnotationSet", "MemoryArea", "format_annotations",
    "generate_annotations", "parse_annotations",
    "AH", "FM", "NC", "CacheAnalysis", "CacheAnalysisResult",
    "HierarchyCacheResult", "PackedCacheDomain", "analyze_hierarchy",
    "BasicBlock", "CFGError", "FunctionCFG", "build_all_cfgs",
    "build_function_cfg",
    "IPETError", "IPETResult", "solve_function_ipet",
    "Loop", "LoopError", "compute_dominators", "find_natural_loops",
    "resolve_bounds",
    "StackAnalysisError", "max_stack_depth", "stack_region",
]
