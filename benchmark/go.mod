module neobft/benchmark

go 1.22

require neobft v0.0.0

replace neobft => ../
