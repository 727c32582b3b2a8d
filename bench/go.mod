module ftgcs/bench

go 1.24

require ftgcs v0.0.0

replace ftgcs => ../
