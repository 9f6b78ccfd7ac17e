"""Road-network trajectory synthesis and split-policy multi-agent RL for
edge task pre-migration."""

__version__ = "0.1.0"
