"""Power graphs of finite groups: construction, exact vertex connectivity,
minimum cut-set enumeration, and closed-form predictions with verification."""
